package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func mustSketch(t *testing.T, b, k int, p Policy) *Sketch {
	t.Helper()
	s, err := NewSketch(b, k, p)
	if err != nil {
		t.Fatalf("NewSketch(%d, %d, %v): %v", b, k, p, err)
	}
	return s
}

func addAll(t *testing.T, s *Sketch, vs []float64) {
	t.Helper()
	if err := s.AddSlice(vs); err != nil {
		t.Fatalf("AddSlice: %v", err)
	}
}

// permutation returns a deterministic pseudo-random permutation of 1..n.
func permutation(n int, seed int64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// exactQuantile returns the value at rank ceil(phi*n) of the sorted data.
func exactQuantile(sorted []float64, phi float64) float64 {
	r := int(math.Ceil(phi * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

func TestNewSketchValidation(t *testing.T) {
	cases := []struct {
		b, k int
		p    Policy
	}{
		{1, 10, PolicyNew},
		{0, 10, PolicyNew},
		{2, 0, PolicyNew},
		{2, -1, PolicyMunroPaterson},
		{5, 5, Policy(99)},
	}
	for _, c := range cases {
		if _, err := NewSketch(c.b, c.k, c.p); err == nil {
			t.Errorf("NewSketch(%d, %d, %v) succeeded, want error", c.b, c.k, c.p)
		}
	}
}

func TestEmptySketchQueries(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("Quantile on empty sketch: err = %v, want ErrEmpty", err)
	}
	if _, err := s.Quantiles([]float64{0.1, 0.9}); err != ErrEmpty {
		t.Fatalf("Quantiles on empty sketch: err = %v, want ErrEmpty", err)
	}
	if got := s.ErrorBound(); got != 0 {
		t.Fatalf("ErrorBound on empty sketch = %v, want 0", got)
	}
}

func TestAddRejectsNaN(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	if err := s.Add(math.NaN()); err == nil {
		t.Fatal("Add(NaN) succeeded, want error")
	}
	if s.Count() != 0 {
		t.Fatalf("Count after rejected Add = %d, want 0", s.Count())
	}
	if err := s.AddSlice([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("AddSlice with NaN succeeded, want error")
	}
	if s.Count() != 1 {
		t.Fatalf("Count after partial AddSlice = %d, want 1", s.Count())
	}
}

func TestQuantileValidatesPhi(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	addAll(t, s, []float64{1, 2, 3})
	for _, phi := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(phi); err == nil {
			t.Errorf("Quantile(%v) succeeded, want error", phi)
		}
	}
}

// TestExactWhenNoCollapse: while the input fits in the buffers no COLLAPSE
// runs, so every quantile must be exactly the rank-ceil(phi*N) element.
func TestExactWhenNoCollapse(t *testing.T) {
	for _, p := range Policies {
		// ARS collapses as soon as floor(b/2) (minimum 2) staging buffers
		// fill, so its no-collapse capacity is smaller than b*k.
		noCollapse := 3 * 4
		if p == PolicyARS {
			noCollapse = 2 * 4
		}
		for _, n := range []int{1, 2, 5, 7, 11, 12} {
			if n > noCollapse {
				continue
			}
			s := mustSketch(t, 3, 4, p)
			data := permutation(n, int64(n))
			addAll(t, s, data)
			if c := s.Stats().Collapses; c != 0 {
				t.Fatalf("%v n=%d: %d collapses within capacity", p, n, c)
			}
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
				got, err := s.Quantile(phi)
				if err != nil {
					t.Fatalf("%v n=%d Quantile(%v): %v", p, n, phi, err)
				}
				if want := exactQuantile(sorted, phi); got != want {
					t.Errorf("%v n=%d phi=%v: got %v, want exact %v", p, n, phi, got, want)
				}
			}
		}
	}
}

func TestSingleElement(t *testing.T) {
	s := mustSketch(t, 2, 5, PolicyNew)
	if err := s.Add(42); err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0, 0.5, 1} {
		got, err := s.Quantile(phi)
		if err != nil || got != 42 {
			t.Fatalf("Quantile(%v) = %v, %v; want 42", phi, got, err)
		}
	}
}

func TestIdenticalValues(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyMunroPaterson)
	for i := 0; i < 1000; i++ {
		if err := s.Add(7); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Quantile(0.5)
	if err != nil || got != 7 {
		t.Fatalf("median of constant stream = %v, %v; want 7", got, err)
	}
}

func TestInfinityValues(t *testing.T) {
	// +/-Inf are legal inputs and must not be confused with the padding
	// sentinels of the final partial buffer.
	s := mustSketch(t, 3, 4, PolicyNew)
	addAll(t, s, []float64{math.Inf(-1), 1, 2, math.Inf(1), 3})
	got, err := s.Quantile(0)
	if err != nil || !math.IsInf(got, -1) {
		t.Fatalf("min = %v, %v; want -Inf", got, err)
	}
	got, err = s.Quantile(1)
	if err != nil || !math.IsInf(got, 1) {
		t.Fatalf("max = %v, %v; want +Inf", got, err)
	}
	got, err = s.Quantile(0.5)
	if err != nil || got != 2 {
		t.Fatalf("median = %v, %v; want 2", got, err)
	}
}

func TestQueryIsNonDestructive(t *testing.T) {
	for _, p := range Policies {
		ref := mustSketch(t, 4, 8, p)
		probed := mustSketch(t, 4, 8, p)
		data := permutation(1000, 7)
		for i, v := range data {
			if err := ref.Add(v); err != nil {
				t.Fatal(err)
			}
			if err := probed.Add(v); err != nil {
				t.Fatal(err)
			}
			if i%37 == 0 {
				if _, err := probed.Quantile(0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		a, err := ref.Quantiles([]float64{0.25, 0.5, 0.75})
		if err != nil {
			t.Fatal(err)
		}
		b, err := probed.Quantiles([]float64{0.25, 0.5, 0.75})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%v: mid-stream queries changed results: %v vs %v", p, a, b)
			}
		}
	}
}

func TestQuantilesPreserveCallerOrder(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	addAll(t, s, permutation(100, 3))
	phis := []float64{0.9, 0.1, 0.5, 1, 0}
	got, err := s.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		single, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != single {
			t.Errorf("Quantiles order mismatch at phi=%v: batch %v, single %v", phi, got[i], single)
		}
	}
}

func TestQuantilesMonotoneInPhi(t *testing.T) {
	for _, p := range Policies {
		s := mustSketch(t, 5, 16, p)
		addAll(t, s, permutation(5000, 11))
		phis := make([]float64, 0, 101)
		for i := 0; i <= 100; i++ {
			phis = append(phis, float64(i)/100)
		}
		got, err := s.Quantiles(phis)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("%v: quantiles not monotone: q[%d]=%v < q[%d]=%v", p, i, got[i], i-1, got[i-1])
			}
		}
	}
}

func TestReset(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	addAll(t, s, permutation(500, 5))
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
	if s.Stats() != (Stats{}) {
		t.Fatalf("Stats after Reset = %+v", s.Stats())
	}
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("Quantile after Reset: err = %v, want ErrEmpty", err)
	}
	// The sketch must be fully usable again.
	data := permutation(500, 6)
	addAll(t, s, data)
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	got, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := exactQuantile(sorted, 0.5)
	if math.Abs(got-want) > float64(len(data)) {
		t.Fatalf("post-Reset median = %v, want near %v", got, want)
	}
}

func TestAccessors(t *testing.T) {
	s := mustSketch(t, 7, 13, PolicyARS)
	if s.B() != 7 || s.K() != 13 || s.MemoryElements() != 91 {
		t.Fatalf("accessors: B=%d K=%d Mem=%d", s.B(), s.K(), s.MemoryElements())
	}
	if s.Policy() != PolicyARS {
		t.Fatalf("Policy = %v", s.Policy())
	}
	addAll(t, s, []float64{1, 2, 3})
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
}

// TestErrorBoundHolds streams permutations through modestly sized sketches
// and verifies that the observed rank error of every reported quantile is
// within the live Lemma 5 bound (+1 for the rank-ceiling convention).
func TestErrorBoundHolds(t *testing.T) {
	phis := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	for _, p := range Policies {
		for _, cfg := range []struct{ b, k, n int }{
			{3, 16, 1000},
			{4, 32, 5000},
			{5, 64, 20000},
			{6, 10, 3000},
			{8, 8, 2500},
		} {
			s := mustSketch(t, cfg.b, cfg.k, p)
			data := permutation(cfg.n, int64(cfg.b*cfg.k))
			addAll(t, s, data)
			bound := s.ErrorBound()
			got, err := s.Quantiles(phis)
			if err != nil {
				t.Fatal(err)
			}
			for i, phi := range phis {
				want := math.Ceil(phi * float64(cfg.n))
				if want < 1 {
					want = 1
				}
				if diff := math.Abs(got[i] - want); diff > bound+1 {
					t.Errorf("%v b=%d k=%d n=%d phi=%v: rank error %v exceeds bound %v",
						p, cfg.b, cfg.k, cfg.n, phi, diff, bound)
				}
			}
		}
	}
}

// TestErrorBoundHoldsOnAdversarialOrders exercises arrival orders that
// stress the collapse schedule: sorted, reversed, organ-pipe and zigzag.
func TestErrorBoundHoldsOnAdversarialOrders(t *testing.T) {
	n := 4000
	orders := map[string]func() []float64{
		"sorted": func() []float64 {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = float64(i + 1)
			}
			return vs
		},
		"reversed": func() []float64 {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = float64(n - i)
			}
			return vs
		},
		"zigzag": func() []float64 {
			vs := make([]float64, 0, n)
			lo, hi := 1, n
			for lo <= hi {
				vs = append(vs, float64(lo))
				lo++
				if lo <= hi {
					vs = append(vs, float64(hi))
					hi--
				}
			}
			return vs
		},
		"organpipe": func() []float64 {
			vs := make([]float64, 0, n)
			for v := 1; v <= n; v += 2 {
				vs = append(vs, float64(v))
			}
			for v := n - n%2; v >= 2; v -= 2 {
				vs = append(vs, float64(v))
			}
			return vs
		},
	}
	for name, gen := range orders {
		data := gen()
		if len(data) != n {
			t.Fatalf("%s generator produced %d values, want %d", name, len(data), n)
		}
		for _, p := range Policies {
			s := mustSketch(t, 4, 20, p)
			addAll(t, s, data)
			bound := s.ErrorBound()
			for _, phi := range []float64{0.1, 0.5, 0.9} {
				got, err := s.Quantile(phi)
				if err != nil {
					t.Fatal(err)
				}
				want := math.Ceil(phi * float64(n))
				if diff := math.Abs(got - want); diff > bound+1 {
					t.Errorf("%s/%v phi=%v: rank error %v exceeds bound %v", name, p, phi, diff, bound)
				}
			}
		}
	}
}

// TestPartialBufferPadding checks the final short buffer, which joins
// OUTPUT unpadded: results must stay exact for tiny inputs whatever share
// of k the fill holds (where the paper's -Inf/+Inf pad would split either
// way).
func TestPartialBufferPadding(t *testing.T) {
	for k := 1; k <= 9; k++ {
		for n := 1; n <= k; n++ {
			s := mustSketch(t, 2, k, PolicyNew)
			data := permutation(n, int64(k*100+n))
			addAll(t, s, data)
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			for _, phi := range []float64{0, 0.3, 0.5, 0.7, 1} {
				got, err := s.Quantile(phi)
				if err != nil {
					t.Fatal(err)
				}
				if want := exactQuantile(sorted, phi); got != want {
					t.Errorf("k=%d n=%d phi=%v: got %v, want %v", k, n, phi, got, want)
				}
			}
		}
	}
}

func TestFinalBuffersAccounting(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	addAll(t, s, permutation(10, 2)) // 2 full buffers + 2-element partial
	views, err := s.FinalBuffersRaw()
	if err != nil {
		t.Fatal(err)
	}
	// Unpadded, the weighted total is exactly the element count.
	if total := totalWeight(views); total != s.Count() {
		t.Fatalf("totalWeight = %d, want count %d", total, s.Count())
	}
	// FinalBuffersRaw must return copies: mutating them must not affect the
	// sketch.
	views[0].Data[0] = math.MaxFloat64
	a, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a == math.MaxFloat64 {
		t.Fatal("FinalBuffersRaw exposed internal storage")
	}
	if _, err := mustSketch(t, 2, 2, PolicyNew).FinalBuffersRaw(); err != ErrEmpty {
		t.Fatalf("FinalBuffersRaw on empty sketch: err = %v, want ErrEmpty", err)
	}
}

func TestErrorBoundMatchesStatsFormula(t *testing.T) {
	s := mustSketch(t, 4, 8, PolicyNew)
	addAll(t, s, permutation(2000, 13))
	st := s.Stats()
	views, err := s.FinalBuffersRaw()
	if err != nil {
		t.Fatal(err)
	}
	var wmax int64
	for _, v := range views {
		if v.Weight > wmax {
			wmax = v.Weight
		}
	}
	want := float64(st.WeightSum-st.Collapses-1)/2 + float64(wmax)
	if got := s.ErrorBound(); got != want {
		t.Fatalf("ErrorBound = %v, want formula value %v", got, want)
	}
}

func TestLeafAccountingMatchesCount(t *testing.T) {
	for _, p := range Policies {
		s := mustSketch(t, 4, 10, p)
		addAll(t, s, permutation(437, 1))
		st := s.Stats()
		if want := int64(437 / 10); st.Leaves != want {
			t.Errorf("%v: Leaves = %d, want %d", p, st.Leaves, want)
		}
	}
}

// TestAddBatchMatchesAddLoop: bulk ingestion must be a pure optimisation —
// the same stream fed through AddBatch in arbitrary chunkings produces
// exactly the state (answers, accounting, extremes) of an element-by-element
// Add loop.
func TestAddBatchMatchesAddLoop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(5)
		k := 1 + r.Intn(40)
		n := 1 + r.Intn(4000)
		policy := Policies[r.Intn(len(Policies))]
		data := permutation(n, seed+100)

		loop := mustSketch(t, b, k, policy)
		for _, v := range data {
			if err := loop.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		batch := mustSketch(t, b, k, policy)
		for off := 0; off < n; {
			sz := 1 + r.Intn(2*k+3)
			if off+sz > n {
				sz = n - off
			}
			if err := batch.AddBatch(data[off : off+sz]); err != nil {
				t.Fatal(err)
			}
			off += sz
		}

		if loop.Count() != batch.Count() {
			t.Fatalf("seed=%d: count %d vs %d", seed, loop.Count(), batch.Count())
		}
		if loop.Stats() != batch.Stats() {
			t.Fatalf("seed=%d %v b=%d k=%d: stats %+v vs %+v", seed, policy, b, k, loop.Stats(), batch.Stats())
		}
		if loop.ErrorBound() != batch.ErrorBound() {
			t.Fatalf("seed=%d: bound %v vs %v", seed, loop.ErrorBound(), batch.ErrorBound())
		}
		lMin, _ := loop.Min()
		bMin, _ := batch.Min()
		lMax, _ := loop.Max()
		bMax, _ := batch.Max()
		if lMin != bMin || lMax != bMax {
			t.Fatalf("seed=%d: extremes (%v,%v) vs (%v,%v)", seed, lMin, lMax, bMin, bMax)
		}
		for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			a, err := loop.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			c, err := batch.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			if a != c {
				t.Fatalf("seed=%d phi=%v: %v vs %v", seed, phi, a, c)
			}
		}
	}
}

// TestAddBatchNaNSemantics: a NaN stops the batch at its index, with the
// prefix consumed — the same contract as the historical Add loop.
func TestAddBatchNaNSemantics(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	vs := []float64{5, 6, 7, 8, 9, math.NaN(), 10}
	err := s.AddBatch(vs)
	if err == nil {
		t.Fatal("AddBatch accepted a NaN")
	}
	if want := "core: element 5:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name index 5", err)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d, want the 5 elements before the NaN", s.Count())
	}
	min, _ := s.Min()
	max, _ := s.Max()
	if min != 5 || max != 9 {
		t.Fatalf("extremes (%v, %v), want (5, 9)", min, max)
	}
	// A NaN at position 0 consumes nothing, even on a fresh fill boundary.
	fresh := mustSketch(t, 3, 4, PolicyNew)
	if err := fresh.AddBatch([]float64{math.NaN()}); err == nil {
		t.Fatal("leading NaN accepted")
	}
	if fresh.Count() != 0 {
		t.Fatalf("count = %d after rejected batch", fresh.Count())
	}
}
