package core

import (
	"runtime"
	"testing"
)

// skipIfAllocsUnreliable skips allocation gates in builds where the runtime
// adds bookkeeping allocations (race detector).
func skipIfAllocsUnreliable(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
}

// warmSketch builds a sketch that has gone through several collapse rounds,
// so all policy/merge/radix scratch has reached its steady-state size.
func warmSketch(t testing.TB, b, k int, p Policy) *Sketch {
	t.Helper()
	s, err := NewSketch(b, k, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(benchData(b*k*4, 21)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAddZeroAllocs gates the tentpole claim: steady-state ingest through
// Add performs zero heap allocations per element, collapses included.
func TestAddZeroAllocs(t *testing.T) {
	skipIfAllocsUnreliable(t)
	for _, p := range Policies {
		t.Run(p.String(), func(t *testing.T) {
			s := warmSketch(t, 8, 1024, p)
			data := benchData(1<<15, 22)
			i := 0
			// Enough runs that many fills and collapses land inside the
			// measured window; any per-collapse allocation would surface.
			allocs := testing.AllocsPerRun(1<<15, func() {
				if err := s.Add(data[i&(1<<15-1)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("Add allocated %v per op at steady state, want 0", allocs)
			}
		})
	}
}

// TestAddBatchZeroAllocs gates the batch path the HTTP ingest loop rides.
func TestAddBatchZeroAllocs(t *testing.T) {
	skipIfAllocsUnreliable(t)
	s := warmSketch(t, 8, 4096, PolicyNew)
	data := benchData(1<<15, 23)
	off := 0
	allocs := testing.AllocsPerRun(2048, func() {
		end := off + 256
		if end > len(data) {
			off, end = 0, 256
		}
		if err := s.AddBatch(data[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	})
	if allocs != 0 {
		t.Fatalf("AddBatch allocated %v per op at steady state, want 0", allocs)
	}
}

// TestQuantilesWarmAllocs gates the query path: a warm repeated query may
// allocate only its result slice (and nothing per-phi or per-buffer).
func TestQuantilesWarmAllocs(t *testing.T) {
	skipIfAllocsUnreliable(t)
	s := warmSketch(t, 10, 596, PolicyNew)
	// Leave a partial fill buffer live so the sorted-copy cache is on the
	// measured path too.
	if err := s.AddBatch(benchData(100, 24)); err != nil {
		t.Fatal(err)
	}
	phis := []float64{0.5, 0.9, 0.99}
	if _, err := s.Quantiles(phis); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Quantiles(phis); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm Quantiles allocated %v per op, want <= 2", allocs)
	}
}

// TestFinalBuffersAllocs pins the copy discipline of the snapshot path:
// exactly one right-sized allocation per view plus the slice header, with
// no append-growth waste (cap == len on every copy).
func TestFinalBuffersAllocs(t *testing.T) {
	skipIfAllocsUnreliable(t)
	s := warmSketch(t, 8, 1024, PolicyNew)
	if err := s.AddBatch(benchData(100, 25)); err != nil {
		t.Fatal(err)
	}

	raw, err := s.FinalBuffersRaw()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range raw {
		if cap(v.Data) != len(v.Data) {
			t.Fatalf("FinalBuffersRaw view %d: cap %d != len %d (over-sized copy)", i, cap(v.Data), len(v.Data))
		}
	}
	wantRaw := float64(len(raw) + 1)
	allocsRaw := testing.AllocsPerRun(50, func() {
		if _, err := s.FinalBuffersRaw(); err != nil {
			t.Fatal(err)
		}
	})
	if allocsRaw > wantRaw {
		t.Fatalf("FinalBuffersRaw allocated %v per call, want <= %v", allocsRaw, wantRaw)
	}
}

// TestPaddedFillCacheInvalidation guards the generation counter: a query
// after any mutation (Add, AddBatch, Reset, Absorb) must see fresh data,
// never the cached sorted copy of a previous fill state.
func TestPaddedFillCacheInvalidation(t *testing.T) {
	s, err := NewSketch(4, 64, PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Quantile(1); err != nil || v != 3 {
		t.Fatalf("Quantile(1) = %v, %v; want 3", v, err)
	}
	if err := s.Add(10); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Quantile(1); err != nil || v != 10 {
		t.Fatalf("after Add: Quantile(1) = %v, %v; want 10", v, err)
	}

	s.Reset()
	if err := s.AddBatch([]float64{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	// Same count and fill length as an earlier state: only the generation
	// counter distinguishes the cached copy from the live buffer.
	if v, err := s.Quantile(0.5); err != nil || v != 7 {
		t.Fatalf("after Reset: Quantile(0.5) = %v, %v; want 7", v, err)
	}

	other, err := NewSketch(4, 64, PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AddBatch([]float64{100, 101}); err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb(other); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Quantile(1); err != nil || v != 101 {
		t.Fatalf("after Absorb: Quantile(1) = %v, %v; want 101", v, err)
	}
}

// TestRetainedMemoryFollowsData pins what a sketch keeps between operations:
// the buffer arrays its data has filled and nothing else. One value retains
// one k-element array; a sketch driven past capacity retains b*k elements,
// and Reset keeps them for reuse. COLLAPSE and sort scratch is borrowed per
// operation, so it never counts.
func TestRetainedMemoryFollowsData(t *testing.T) {
	const b, k = 8, 1 << 14
	const array = k * 8 // bytes in one buffer array
	retained := func(n int) (int64, *Sketch) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := mustSketch(t, b, k, PolicyNew)
		addAll(t, s, benchData(n, 26))
		// Two cycles empty sync.Pool, so borrowed scratch is gone.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), s
	}

	heap, s := retained(1)
	if got := s.HeldElements(); got != k {
		t.Errorf("one value: HeldElements = %d, want one buffer (%d)", got, k)
	}
	if heap >= 2*array {
		t.Errorf("one value: sketch retains %d bytes, want under two buffer arrays (%d)", heap, 2*array)
	}

	heap, s = retained(4 * b * k)
	if got := s.HeldElements(); got != b*k {
		t.Errorf("past capacity: HeldElements = %d, want b*k = %d", got, b*k)
	}
	if heap < b*array || heap >= (b+1)*array {
		t.Errorf("past capacity: sketch retains %d bytes, want b*k*8 = %d plus bookkeeping", heap, b*array)
	}
	s.Reset()
	if got := s.HeldElements(); got != b*k {
		t.Errorf("after Reset: HeldElements = %d, want the b*k arrays kept (%d)", got, b*k)
	}
}
