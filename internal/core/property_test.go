package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPropertySelectInMergeMatchesExpansion cross-checks the counter-based
// weighted selection against brute-force materialisation on random inputs.
func TestPropertySelectInMergeMatchesExpansion(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 1 + r.Intn(4)
		bufs := make([]Weighted, nb)
		var expanded []float64
		for i := range bufs {
			sz := 1 + r.Intn(6)
			w := int64(1 + r.Intn(5))
			data := make([]float64, sz)
			for j := range data {
				data[j] = float64(r.Intn(20))
			}
			sort.Float64s(data)
			bufs[i] = Weighted{Data: data, Weight: w}
			for _, v := range data {
				for c := int64(0); c < w; c++ {
					expanded = append(expanded, v)
				}
			}
		}
		sort.Float64s(expanded)
		nt := 1 + r.Intn(8)
		targets := make([]int64, nt)
		for i := range targets {
			targets[i] = int64(1 + r.Intn(len(expanded)))
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		got := walkSelect(bufs, targets)
		for i, tgt := range targets {
			if got[i] != expanded[tgt-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyErrorBoundHolds is the central invariant of the paper: for
// random configurations, stream sizes and arrival orders, every reported
// quantile's rank error stays within the live Lemma 5 bound.
func TestPropertyErrorBoundHolds(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(6)
		k := 1 + r.Intn(40)
		n := 1 + r.Intn(3000)
		policy := Policies[r.Intn(len(Policies))]
		s, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i + 1)
		}
		r.Shuffle(n, func(i, j int) { data[i], data[j] = data[j], data[i] })
		if err := s.AddSlice(data); err != nil {
			return false
		}
		bound := s.ErrorBound()
		for _, phi := range []float64{0, 0.1, 0.5, 0.9, 1} {
			got, err := s.Quantile(phi)
			if err != nil {
				return false
			}
			want := math.Ceil(phi * float64(n))
			if want < 1 {
				want = 1
			}
			if math.Abs(got-want) > bound+1 {
				t.Logf("seed=%d policy=%v b=%d k=%d n=%d phi=%v got=%v want=%v bound=%v",
					seed, policy, b, k, n, phi, got, want, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOutputIsInputElement: OUTPUT selects positions that always
// land on genuine input elements, never on the -Inf/+Inf padding sentinels
// of the final short buffer.
func TestPropertyOutputIsInputElement(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(4)
		k := 1 + r.Intn(20)
		n := 1 + r.Intn(500)
		policy := Policies[r.Intn(len(Policies))]
		s, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		seen := make(map[float64]bool, n)
		for i := 0; i < n; i++ {
			v := math.Floor(r.Float64()*1000) / 10
			seen[v] = true
			if err := s.Add(v); err != nil {
				return false
			}
		}
		for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
			got, err := s.Quantile(phi)
			if err != nil || !seen[got] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWeightConservation: at any prefix of the stream the weighted
// buffer contents account for every whole-buffer element exactly once.
func TestPropertyWeightConservation(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(5)
		k := 1 + r.Intn(10)
		n := r.Intn(2000)
		policy := Policies[r.Intn(len(Policies))]
		s, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if err := s.Add(r.Float64()); err != nil {
				return false
			}
		}
		var total int64
		for _, buf := range s.bufs {
			if buf.full {
				total += buf.weight * int64(len(buf.data))
			}
		}
		partial := int64(0)
		if s.fill != nil {
			partial = int64(len(s.fill.data))
		}
		return total+partial == int64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDuplicateHeavyStreams: heavy duplication (tiny value domains)
// must not break rank guarantees. With duplicates the rank of a value is a
// range; the estimate is correct if its rank range overlaps
// [target-bound-1, target+bound+1].
func TestPropertyDuplicateHeavyStreams(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(4)
		k := 1 + r.Intn(20)
		n := 1 + r.Intn(1500)
		domain := 1 + r.Intn(5)
		policy := Policies[r.Intn(len(Policies))]
		s, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(r.Intn(domain))
			if err := s.Add(data[i]); err != nil {
				return false
			}
		}
		sort.Float64s(data)
		bound := s.ErrorBound()
		for _, phi := range []float64{0, 0.3, 0.5, 0.8, 1} {
			got, err := s.Quantile(phi)
			if err != nil {
				return false
			}
			target := math.Ceil(phi * float64(n))
			if target < 1 {
				target = 1
			}
			lo := float64(sort.SearchFloat64s(data, got) + 1)
			hi := float64(sort.Search(len(data), func(i int) bool { return data[i] > got }))
			if hi < target-bound-1 || lo > target+bound+1 {
				t.Logf("seed=%d: phi=%v got=%v rank=[%v,%v] target=%v bound=%v",
					seed, phi, got, lo, hi, target, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyResetEquivalence: a Reset sketch must behave exactly like a
// fresh one on the same stream.
func TestPropertyResetEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(4)
		k := 1 + r.Intn(10)
		policy := Policies[r.Intn(len(Policies))]
		reused, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		for i := 0; i < r.Intn(500); i++ {
			if err := reused.Add(r.Float64()); err != nil {
				return false
			}
		}
		reused.Reset()
		fresh, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		n := 1 + r.Intn(500)
		for i := 0; i < n; i++ {
			v := r.Float64()
			if reused.Add(v) != nil || fresh.Add(v) != nil {
				return false
			}
		}
		for _, phi := range []float64{0.2, 0.5, 0.8} {
			a, errA := reused.Quantile(phi)
			c, errC := fresh.Quantile(phi)
			if errA != nil || errC != nil || a != c {
				return false
			}
		}
		return reused.Stats() == fresh.Stats()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
