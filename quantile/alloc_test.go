package quantile

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestConcurrentAddBatchZeroAllocs extends the core package's steady-state
// guarantee through the sharded front end: routing, shard locking, and the
// per-shard sketch together allocate nothing per batch once warm.
func TestConcurrentAddBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	c, err := NewConcurrent(ConcurrentConfig{B: 8, K: 1024, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	data := make([]float64, 1<<15)
	for i := range data {
		data[i] = r.Float64()
	}
	// Warm every shard through several collapse rounds.
	for i := 0; i < 8; i++ {
		if err := c.AddBatch(data); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	allocs := testing.AllocsPerRun(1024, func() {
		end := off + 512
		if end > len(data) {
			off, end = 0, 512
		}
		if err := c.AddBatch(data[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	})
	if allocs != 0 {
		t.Fatalf("Concurrent.AddBatch allocated %v per op at steady state, want 0", allocs)
	}
}

// TestConcurrentErrorBoundCopiesNoBuffers: the combined MRL bound reads
// every shard's collapse accounting and buffer weights in place. Copying
// the shards' buffers to read their weights cost 904 KB per call at this
// size.
func TestConcurrentErrorBoundCopiesNoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.001, N: 1 << 24, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(32))
	batch := make([]float64, 1<<12)
	for range (4 << 20) / len(batch) {
		for i := range batch {
			batch[i] = r.NormFloat64()
		}
		if err := c.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 16
	for range calls {
		if c.ErrorBound() <= 0 {
			t.Fatal("no bound over 4M values")
		}
	}
	runtime.ReadMemStats(&after)
	held := c.EstimatorStats().HeldElements * 8
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 1024 {
		t.Fatalf("ErrorBound allocated %d B per call over %d B of held buffers, want <= 1 KiB", per, held)
	}
}
