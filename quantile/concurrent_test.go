package quantile

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mrl/internal/baseline"
	"mrl/internal/core"
)

// permData returns a deterministic pseudo-random permutation of 1..n, so the
// exact rank of a value v is v itself.
func permData(n int, seed int64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

func TestConcurrentBasic(t *testing.T) {
	const n = 50000
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: n, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := permData(n, 1)
	// Mix the two ingestion paths.
	for i := 0; i < n/2; i++ {
		if err := c.Add(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddBatch(data[n/2:]); err != nil {
		t.Fatal(err)
	}
	if c.Count() != n {
		t.Fatalf("Count = %d, want %d", c.Count(), n)
	}
	min, err := c.Min()
	if err != nil || min != 1 {
		t.Fatalf("Min = %v, %v", min, err)
	}
	max, err := c.Max()
	if err != nil || max != n {
		t.Fatalf("Max = %v, %v", max, err)
	}
	phis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	values, bound, err := c.QuantilesWithBound(phis)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		want := math.Ceil(phi * n)
		if want < 1 {
			want = 1
		}
		if diff := math.Abs(values[i] - want); diff > bound+1 {
			t.Errorf("phi=%v: got %v, want %v, |diff| %v > bound %v", phi, values[i], want, diff, bound)
		}
	}
	if bound > 0.01*n {
		t.Errorf("combined bound %v exceeds provisioned eps*N = %v", bound, 0.01*n)
	}
	if got := c.ErrorBound(); got != bound {
		t.Errorf("ErrorBound = %v, QuantilesWithBound reported %v", got, bound)
	}
	if c.Shards() != 4 {
		t.Errorf("Shards = %d", c.Shards())
	}
	if !strings.Contains(c.Describe(), "shards=4") {
		t.Errorf("Describe = %q", c.Describe())
	}
}

// TestPropertyConcurrentWithinCombinedBound is the differential property
// layer: for random streams, shard counts and policies, the concurrent
// sketch's answers must stay within its combined ErrorBound of the exact
// baseline, and agree with a sequential Sketch over the same stream up to
// the sum of the two certificates.
func TestPropertyConcurrentWithinCombinedBound(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 500 + r.Intn(20000)
		shards := 1 + r.Intn(8)
		eps := 0.01 + r.Float64()*0.09
		policy := []Policy{PolicyNew, PolicyMunroPaterson, PolicyARS}[r.Intn(3)]

		c, err := NewConcurrent(ConcurrentConfig{Epsilon: eps, N: int64(n), Shards: shards, Policy: policy})
		if err != nil {
			t.Logf("seed=%d: NewConcurrent: %v", seed, err)
			return false
		}
		seq, err := New(Config{Epsilon: eps, N: int64(n), Policy: policy})
		if err != nil {
			t.Logf("seed=%d: New: %v", seed, err)
			return false
		}
		exact := baseline.NewExact()

		// Duplicate-heavy or smooth values, fed in random-size batches.
		domain := 1 + r.Intn(2*n)
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(r.Intn(domain))
		}
		for off := 0; off < n; {
			sz := 1 + r.Intn(1000)
			if off+sz > n {
				sz = n - off
			}
			if err := c.AddBatch(data[off : off+sz]); err != nil {
				return false
			}
			off += sz
		}
		if err := seq.AddSlice(data); err != nil {
			return false
		}
		for _, v := range data {
			if err := exact.Add(v); err != nil {
				return false
			}
		}
		if c.Count() != int64(n) {
			t.Logf("seed=%d: count %d != %d", seed, c.Count(), n)
			return false
		}

		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		phis := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}
		values, bound, err := c.QuantilesWithBound(phis)
		if err != nil {
			return false
		}
		seqValues, err := seq.Quantiles(phis)
		if err != nil {
			return false
		}
		seqBound, ok := seq.ErrorBound()
		if !ok {
			return false
		}
		for i, phi := range phis {
			target := math.Ceil(phi * float64(n))
			if target < 1 {
				target = 1
			}
			// Rank range of the estimate in the sorted data (duplicates give
			// a range, not a point).
			lo := float64(sort.SearchFloat64s(sorted, values[i]) + 1)
			hi := float64(sort.Search(len(sorted), func(j int) bool { return sorted[j] > values[i] }))
			if hi < target-bound-1 || lo > target+bound+1 {
				t.Logf("seed=%d n=%d shards=%d %v eps=%v phi=%v: got %v rank=[%v,%v] target=%v bound=%v",
					seed, n, shards, policy, eps, phi, values[i], lo, hi, target, bound)
				return false
			}
			// Differential vs the sequential sketch: both certificates apply.
			sLo := float64(sort.SearchFloat64s(sorted, seqValues[i]) + 1)
			sHi := float64(sort.Search(len(sorted), func(j int) bool { return sorted[j] > seqValues[i] }))
			if lo > sHi+bound+seqBound+2 || hi < sLo-bound-seqBound-2 {
				t.Logf("seed=%d phi=%v: concurrent %v vs sequential %v outside joint bound %v",
					seed, phi, values[i], seqValues[i], bound+seqBound+2)
				return false
			}
		}
		// The exact baseline agrees with the sorted-copy oracle.
		exactVals, err := exact.Quantiles(phis)
		if err != nil {
			return false
		}
		for i, phi := range phis {
			target := int(math.Ceil(phi * float64(n)))
			if target < 1 {
				target = 1
			}
			if exactVals[i] != sorted[target-1] {
				t.Logf("seed=%d: oracle disagreement at phi=%v", seed, phi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentParallelWritersWithinBound: the answers stay certified when
// the stream really is written from many goroutines at once.
func TestConcurrentParallelWritersWithinBound(t *testing.T) {
	const n = 200000
	const writers = 8
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.005, N: n, Shards: writers})
	if err != nil {
		t.Fatal(err)
	}
	data := permData(n, 2)
	var wg sync.WaitGroup
	per := n / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []float64) {
			defer wg.Done()
			// Alternate batch and single-element ingestion.
			half := len(part) / 2
			if err := c.AddBatch(part[:half]); err != nil {
				t.Error(err)
				return
			}
			for _, v := range part[half:] {
				if err := c.Add(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(data[w*per : (w+1)*per])
	}
	wg.Wait()
	if c.Count() != n {
		t.Fatalf("Count = %d, want %d", c.Count(), n)
	}
	phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	values, bound, err := c.QuantilesWithBound(phis)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		want := math.Ceil(phi * n)
		if diff := math.Abs(values[i] - want); diff > bound+1 {
			t.Errorf("phi=%v: got %v want %v bound %v", phi, values[i], want, bound)
		}
	}
}

// TestConcurrentRaceStress hammers Add/AddBatch from GOMAXPROCS writers
// while readers query continuously. Run with -race (make race) to verify
// the locking discipline; the final count check verifies conservation.
func TestConcurrentRaceStress(t *testing.T) {
	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 1 << 20, Shards: writers})
	if err != nil {
		t.Fatal(err)
	}
	const perWriter = 4000
	var fed int64
	var stop int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			buf := make([]float64, 0, 64)
			for i := 0; i < perWriter; i++ {
				v := r.Float64() * 1000
				if i%3 == 0 {
					if err := c.Add(v); err != nil {
						t.Error(err)
						return
					}
					atomic.AddInt64(&fed, 1)
				} else {
					buf = append(buf, v)
					if len(buf) == cap(buf) {
						if err := c.AddBatch(buf); err != nil {
							t.Error(err)
							return
						}
						atomic.AddInt64(&fed, int64(len(buf)))
						buf = buf[:0]
					}
				}
			}
			if len(buf) > 0 {
				if err := c.AddBatch(buf); err != nil {
					t.Error(err)
					return
				}
				atomic.AddInt64(&fed, int64(len(buf)))
			}
		}(int64(w + 1))
	}
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.LoadInt32(&stop) == 0 {
				if c.Count() == 0 {
					continue
				}
				if _, err := c.Median(); err != nil && err != core.ErrEmpty {
					t.Errorf("Median during writes: %v", err)
					return
				}
				if vs, err := c.Quantiles([]float64{0.1, 0.5, 0.9}); err == nil {
					if vs[0] > vs[1] || vs[1] > vs[2] {
						t.Errorf("non-monotone concurrent read: %v", vs)
						return
					}
				} else if err != core.ErrEmpty {
					t.Errorf("Quantiles during writes: %v", err)
					return
				}
				_ = c.ErrorBound()
				_, _ = c.Min()
				_, _ = c.Max()
			}
		}()
	}
	// Writers finish first; then release the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		if atomic.LoadInt64(&fed) >= int64(writers)*perWriter {
			atomic.StoreInt32(&stop, 1)
		}
		select {
		case <-done:
			if got := c.Count(); got != atomic.LoadInt64(&fed) {
				t.Fatalf("Count = %d, fed %d", got, fed)
			}
			return
		default:
			runtime.Gosched()
		}
	}
}

func TestConcurrentConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ConcurrentConfig
	}{
		{"negative shards", ConcurrentConfig{Epsilon: 0.01, N: 1000, Shards: -1}},
		{"zero epsilon", ConcurrentConfig{N: 1000}},
		{"epsilon too tight for shards", ConcurrentConfig{Epsilon: 0.001, N: 1000, Shards: 8}},
		{"bad geometry", ConcurrentConfig{B: 1, K: 0, Shards: 2}},
		{"bad N", ConcurrentConfig{Epsilon: 0.01, N: 0}},
	}
	for _, tc := range cases {
		if _, err := NewConcurrent(tc.cfg); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.cfg)
		}
	}
	// Defaults: shard count falls back to GOMAXPROCS.
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.1, N: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != runtime.GOMAXPROCS(0) {
		t.Errorf("default Shards = %d, want GOMAXPROCS = %d", c.Shards(), runtime.GOMAXPROCS(0))
	}
	// Explicit geometry provisions every shard as B x K.
	g, err := NewConcurrent(ConcurrentConfig{B: 4, K: 32, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.MemoryElements() != 3*4*32 {
		t.Errorf("MemoryElements = %d, want %d", g.MemoryElements(), 3*4*32)
	}
	// ... but a buffer gets its array only when data first fills it.
	if err := g.Add(1); err != nil {
		t.Fatal(err)
	}
	if held := g.EstimatorStats().HeldElements; held != 32 {
		t.Errorf("HeldElements after one value = %d, want one buffer (32)", held)
	}
}

func TestConcurrentEmpty(t *testing.T) {
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Median(); err == nil {
		t.Error("Median on empty sketch succeeded")
	}
	if _, err := c.Min(); err == nil {
		t.Error("Min on empty sketch succeeded")
	}
	if c.Count() != 0 || c.ErrorBound() != 0 {
		t.Errorf("empty sketch: Count=%d ErrorBound=%v", c.Count(), c.ErrorBound())
	}
	if err := c.AddBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestConcurrentAddBatchRejectsNaNAtomically(t *testing.T) {
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := []float64{1, 2, math.NaN(), 4}
	err = c.AddBatch(batch)
	if err == nil {
		t.Fatal("AddBatch accepted NaN")
	}
	if !strings.Contains(err.Error(), "element 2") {
		t.Errorf("error %q does not name index 2", err)
	}
	if c.Count() != 0 {
		t.Errorf("rejected batch consumed %d elements; want all-or-nothing", c.Count())
	}
	if err := c.Add(math.NaN()); err == nil {
		t.Error("Add accepted NaN")
	}
}

func TestConcurrentReset(t *testing.T) {
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 10000, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(permData(5000, 3)); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatalf("Count after Reset = %d", c.Count())
	}
	if err := c.AddBatch(permData(5000, 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.QuantilesWithBound([]float64{0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSeal(t *testing.T) {
	const n = 30000
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: n, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := permData(n, 5)
	if err := c.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	est, err := c.SealEstimator()
	if err != nil {
		t.Fatal(err)
	}
	sealed, ok := est.(*Sketch)
	if !ok {
		t.Fatalf("MRL seal produced %T, want a sequential *Sketch", est)
	}
	if sealed.Count() != n {
		t.Fatalf("sealed Count = %d, want %d", sealed.Count(), n)
	}
	med, err := sealed.Median()
	if err != nil {
		t.Fatal(err)
	}
	bound, ok := sealed.ErrorBound()
	if !ok {
		t.Fatal("sealed sketch lost its certificate")
	}
	if diff := math.Abs(med - math.Ceil(0.5*n)); diff > bound+1 {
		t.Errorf("sealed median %v off by %v > bound %v", med, diff, bound)
	}
	// The sealed sketch serialises; the concurrent sketch stays live.
	if _, err := sealed.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1); err != nil {
		t.Fatal(err)
	}
	// Sealing an empty sketch fails cleanly.
	empty, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.SealEstimator(); err == nil {
		t.Error("SealEstimator on empty sketch succeeded")
	}
}

func TestConcurrentAddBatchEmptyIsNoOpWithoutShards(t *testing.T) {
	c, err := NewConcurrent(ConcurrentConfig{B: 3, K: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Hold every shard lock: an empty batch must return immediately anyway,
	// i.e. it never even tries to acquire a shard.
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	done := make(chan error, 2)
	go func() { done <- c.AddBatch(nil) }()
	go func() { done <- c.AddBatch([]float64{}) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("empty AddBatch blocked on a shard lock")
		}
	}
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
	if c.Count() != 0 {
		t.Fatalf("empty batches consumed %d elements", c.Count())
	}
}

func TestConcurrentShardCountsAndStats(t *testing.T) {
	const n = 50_000
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: n, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ShardCounts(); len(got) != 4 {
		t.Fatalf("ShardCounts = %v", got)
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i)
	}
	if err := c.AddBatch(vs); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, sc := range c.ShardCounts() {
		total += sc
	}
	if total != n {
		t.Fatalf("shard occupancy sums to %d, want %d", total, n)
	}
	st := c.Stats()
	if st.Leaves == 0 || st.Collapses == 0 || st.WeightSum < st.Collapses {
		t.Fatalf("implausible pooled stats %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("%d fallbacks within provisioned capacity", st.Fallbacks)
	}
	// The pooled accounting must reproduce the combined certificate.
	if bound := c.ErrorBound(); bound <= 0 || bound > 0.01*n {
		t.Fatalf("bound %v outside (0, eps*N]", bound)
	}
}

// TestConcurrentCombineWith combines the live MRL shards with a restored
// sequential sketch: the shards seal into one sketch and the restored one
// folds into it.
func TestConcurrentCombineWith(t *testing.T) {
	const n = 40_000
	data := make([]float64, n)
	for i := range data {
		data[i] = float64((i*7919)%n + 1)
	}
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: n, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(data[:n/2]); err != nil {
		t.Fatal(err)
	}
	// The second half lives in a restored (serialised+deserialised)
	// sequential sketch of the shards' geometry, as a checkpoint holds it.
	est, err := c.SealEstimator()
	if err != nil {
		t.Fatal(err)
	}
	sealed := est.(*Sketch)
	side, err := New(Config{B: sealed.det.B(), K: sealed.det.K()})
	if err != nil {
		t.Fatal(err)
	}
	if err := side.AddSlice(data[n/2:]); err != nil {
		t.Fatal(err)
	}
	blob, err := side.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Sketch{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := sealed.Absorb(restored); err != nil {
		t.Fatal(err)
	}
	if err := sealed.Absorb(nil); err != nil {
		t.Fatal(err)
	}

	phis := []float64{0.1, 0.5, 0.9}
	values, err := sealed.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := sealed.ErrorBound()
	if sealed.Count() != n {
		t.Fatalf("combined count %d, want %d", sealed.Count(), n)
	}
	for i, phi := range phis {
		target := math.Ceil(phi * n)
		if diff := math.Abs(values[i] - target); diff > bound+1 {
			t.Errorf("phi=%v: %v off by %v > bound %v", phi, values[i], diff, bound)
		}
	}
	// The live shards are untouched and keep their own combined read path.
	direct, directBound, err := c.QuantilesWithBound(phis)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != n/2 || directBound != c.ErrorBound() || len(direct) != len(phis) {
		t.Fatalf("live shards after the combine: count %d, bound %v vs ErrorBound %v", c.Count(), directBound, c.ErrorBound())
	}
	// Sampled sketches cannot take part.
	smp, err := New(Config{Epsilon: 0.05, N: 10_000_000_000, Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Sampled() {
		t.Skip("sampling plan did not trigger; cannot exercise rejection")
	}
	if err := sealed.Absorb(smp); err == nil {
		t.Error("sampled sketch absorbed")
	}
}
