package window

import (
	"math/rand"
	"runtime"
	"testing"
)

// fullRing returns a ring at quantiled's window defaults (5 windows of 1M
// values at epsilon 0.001) with every window full of normal values.
func fullRing(tb testing.TB) *Ring {
	tb.Helper()
	const windows, perWindow = 5, 1_000_000
	r, err := NewRing(windows, 0.001, perWindow)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := make([]float64, 1000)
	for w := range windows {
		if w > 0 {
			if err := r.Rotate(); err != nil {
				tb.Fatal(err)
			}
		}
		for range perWindow / len(batch) {
			for i := range batch {
				batch[i] = rng.NormFloat64()
			}
			if err := r.AddBatch(batch); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return r
}

// TestRingQueriesCopyNoBuffers: a windowed query combines the windows in
// place. Copying every window's buffers cost 619 KB per Quantiles and
// 622 KB per Bound call at this size; now Quantiles allocates little
// beyond its answers (its scratch is pooled) and Bound nothing.
func TestRingQueriesCopyNoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	r := fullRing(t)
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	if _, _, err := r.Quantiles(phis); err != nil { // warms the pooled scratch
		t.Fatal(err)
	}
	held := uint64(r.HeldElements()) * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 16
	for range calls {
		if _, _, err := r.Quantiles(phis); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > held/64 {
		t.Fatalf("Quantiles allocated %d B per call over %d B of held buffers, want <= %d", per, held, held/64)
	}
	if allocs := testing.AllocsPerRun(16, func() { r.Bound() }); allocs != 0 {
		t.Fatalf("Bound allocated %v times per call, want 0", allocs)
	}
}

// BenchmarkRingQuantiles measures a windowed query over five full windows,
// the combine a served window=true query runs; core's BenchmarkQuantiles is
// the one-sketch case.
func BenchmarkRingQuantiles(b *testing.B) {
	r := fullRing(b)
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := r.Quantiles(phis); err != nil {
			b.Fatal(err)
		}
	}
}
