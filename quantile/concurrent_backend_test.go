package quantile

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mrl/internal/validate"
)

// TestConcurrentBackends drives KLL and weighted shards through the full
// Concurrent surface: sharded ingest, combined queries with the backend's
// own bound, extremes, seal, folding a baseline into the seal, reset.
func TestConcurrentBackends(t *testing.T) {
	for _, b := range []Backend{BackendKLL, BackendWeighted} {
		t.Run(string(b), func(t *testing.T) {
			c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, Shards: 4, Backend: b, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if c.Backend() != b {
				t.Fatalf("Backend() = %q", c.Backend())
			}
			if _, _, err := c.QuantilesWithBound([]float64{0.5}); !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty query err = %v", err)
			}

			rng := rand.New(rand.NewSource(6))
			data := make([]float64, 30000)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			// Mix single Adds and batches across the shards.
			for _, v := range data[:100] {
				if err := c.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.AddBatch(data[100:]); err != nil {
				t.Fatal(err)
			}
			if c.Count() != int64(len(data)) {
				t.Fatalf("count %d", c.Count())
			}
			var shardTotal int64
			for _, n := range c.ShardCounts() {
				shardTotal += n
			}
			if shardTotal != int64(len(data)) {
				t.Fatalf("shard counts sum to %d", shardTotal)
			}

			phis := []float64{0, 0.1, 0.5, 0.9, 1}
			vals, bound, err := c.QuantilesWithBound(phis)
			if err != nil {
				t.Fatal(err)
			}
			if bound <= 0 || bound != c.ErrorBound() {
				t.Fatalf("bound %v vs ErrorBound %v", bound, c.ErrorBound())
			}
			rep, err := validate.Evaluate(string(b), data, phis, vals)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range rep.Results {
				if float64(q.RankError) > bound {
					t.Errorf("phi=%v rank error %d exceeds combined bound %v", q.Phi, q.RankError, bound)
				}
			}
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			mn, err := c.Min()
			if err != nil {
				t.Fatal(err)
			}
			mx, err := c.Max()
			if err != nil {
				t.Fatal(err)
			}
			if mn != sorted[0] || mx != sorted[len(sorted)-1] {
				t.Fatalf("extremes %v/%v want %v/%v", mn, mx, sorted[0], sorted[len(sorted)-1])
			}
			if c.MemoryElements() <= 0 {
				t.Fatal("no memory accounted")
			}
			st := c.EstimatorStats()
			if st.Backend != b || st.Count != c.Count() ||
				st.HeldElements <= 0 || st.HeldElements > c.MemoryElements() {
				t.Fatalf("EstimatorStats %+v", st)
			}
			if mrlStats := c.Stats(); mrlStats != (IngestStats{}) {
				t.Fatalf("MRL Stats non-zero for %q: %+v", b, mrlStats)
			}

			// Seal to a standalone estimator; it must answer like the live one.
			sealed, err := c.SealEstimator()
			if err != nil {
				t.Fatal(err)
			}
			if sealed.Count() != c.Count() {
				t.Fatalf("sealed count %d", sealed.Count())
			}
			sv, err := sealed.Quantiles(phis)
			if err != nil {
				t.Fatal(err)
			}
			sb, _ := sealed.ErrorBound()
			srep, err := validate.Evaluate(string(b)+"-sealed", data, phis, sv)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range srep.Results {
				if float64(q.RankError) > sb {
					t.Errorf("sealed phi=%v rank error %d exceeds bound %v", q.Phi, q.RankError, sb)
				}
			}

			// A restored baseline folds into the sealed estimator.
			baseline, err := NewEstimator(b, Config{Epsilon: 0.01, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			extraData := make([]float64, 5000)
			for i := range extraData {
				extraData[i] = rng.NormFloat64()
			}
			if err := baseline.AddBatch(extraData); err != nil {
				t.Fatal(err)
			}
			if err := sealed.Absorb(baseline); err != nil {
				t.Fatal(err)
			}
			union := append(append([]float64(nil), data...), extraData...)
			if sealed.Count() != int64(len(union)) {
				t.Fatalf("combined count %d want %d", sealed.Count(), len(union))
			}
			uv, err := sealed.Quantiles(phis)
			if err != nil {
				t.Fatal(err)
			}
			ub, _ := sealed.ErrorBound()
			urep, err := validate.Evaluate(string(b)+"-union", union, phis, uv)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range urep.Results {
				if float64(q.RankError) > ub {
					t.Errorf("union phi=%v rank error %d exceeds bound %v", q.Phi, q.RankError, ub)
				}
			}
			// The live sketch must be untouched by the seal and the fold.
			if c.Count() != int64(len(data)) {
				t.Fatalf("combine mutated live sketch: count %d", c.Count())
			}

			c.Reset()
			if c.Count() != 0 {
				t.Fatal("Reset kept data")
			}
		})
	}
}

func TestConcurrentBackendValidation(t *testing.T) {
	if _, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, Backend: "bogus"}); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("bogus backend err = %v", err)
	}
	// KLL needs Epsilon or K to size itself.
	if _, err := NewConcurrent(ConcurrentConfig{Backend: BackendKLL, Shards: 2}); err == nil {
		t.Fatal("unsized kll concurrent accepted")
	}
	// Explicit K reaches the KLL shards.
	c, err := NewConcurrent(ConcurrentConfig{Backend: BackendKLL, K: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentKLLRace is the -race stress test of the ISSUE: many
// goroutines hammering a KLL-backed Concurrent with single Adds, batches,
// quantile queries, bounds and stats concurrently. Run with -race (the
// repo's race target includes this package).
func TestConcurrentKLLRace(t *testing.T) {
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.02, Shards: 4, Backend: BackendKLL, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, perWriter = 4, 3, 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]float64, 0, 512)
			for i := 0; i < perWriter; i++ {
				v := rng.NormFloat64()
				if i%3 == 0 {
					if err := c.Add(v); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				batch = append(batch, v)
				if len(batch) == cap(batch) {
					if err := c.AddBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if err := c.AddBatch(batch); err != nil {
				t.Error(err)
			}
		}(int64(w + 1))
	}
	done := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			phis := []float64{0.1, 0.5, 0.9}
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := c.QuantilesWithBound(phis); err != nil && !errors.Is(err, ErrEmpty) {
					t.Error(err)
					return
				}
				c.ErrorBound()
				c.Count()
				c.EstimatorStats()
				c.ShardCounts()
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()
	if got, want := c.Count(), int64(writers*perWriter); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	if _, _, err := c.QuantilesWithBound([]float64{0.5}); err != nil {
		t.Fatal(err)
	}
}
