package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// handBuffer builds a full buffer directly, for hand-worked COLLAPSE
// examples in the style of the paper's Figure 1.
func handBuffer(data []float64, weight int64) *buffer {
	return &buffer{data: data, weight: weight, full: true}
}

// TestCollapseHandWorkedExample reproduces a Figure 1 style COLLAPSE by
// hand: three k=4 buffers with weights 2, 1 and 3. The weighted merge is
//
//	1 1 2 3 3 3 4 4 5 6 6 6 7 7 8 9 9 9 10 10 11 12 12 12
//	positions 1..24, w(Y) = 6
//
// With the high even offset (w+2)/2 = 4 the selected positions are
// 4, 10, 16, 22 -> elements 3, 6, 9, 12.
func TestCollapseHandWorkedExample(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	x1 := handBuffer([]float64{1, 4, 7, 10}, 2)
	x2 := handBuffer([]float64{2, 5, 8, 11}, 1)
	x3 := handBuffer([]float64{3, 6, 9, 12}, 3)
	out := s.collapse([]*buffer{x1, x2, x3}, 1)
	if want := []float64{3, 6, 9, 12}; !reflect.DeepEqual(out.data, want) {
		t.Fatalf("collapse output = %v, want %v", out.data, want)
	}
	if out.weight != 6 || out.level != 1 || !out.full {
		t.Fatalf("output buffer meta = %+v", out)
	}
	if out != x1 {
		t.Fatal("output must reuse the first input buffer")
	}
	if x2.full || x3.full || len(x2.data) != 0 || len(x3.data) != 0 {
		t.Fatal("remaining inputs not emptied")
	}
	st := s.Stats()
	if st.Collapses != 1 || st.WeightSum != 6 || st.MaxCollapseWeight != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCollapseAlternatesHandWorked: the second even-weight collapse must
// use the low offset w/2 = 3, selecting positions 3, 9, 15, 21 ->
// elements 2, 5, 8, 11 from the same configuration.
func TestCollapseAlternatesHandWorked(t *testing.T) {
	s := mustSketch(t, 3, 4, PolicyNew)
	// Burn the high offset on an unrelated even-weight collapse.
	s.collapse([]*buffer{
		handBuffer([]float64{0, 0, 0, 0}, 1),
		handBuffer([]float64{0, 0, 0, 0}, 1),
	}, 1)
	out := s.collapse([]*buffer{
		handBuffer([]float64{1, 4, 7, 10}, 2),
		handBuffer([]float64{2, 5, 8, 11}, 1),
		handBuffer([]float64{3, 6, 9, 12}, 3),
	}, 1)
	if want := []float64{2, 5, 8, 11}; !reflect.DeepEqual(out.data, want) {
		t.Fatalf("collapse output = %v, want %v", out.data, want)
	}
}

// TestCollapseOddWeightHandWorked: odd w(Y) uses offset (w+1)/2 with no
// alternation. Weights 1+2 = 3, k = 3: merge of {1,3,5} (w=1) and
// {2,4,6} (w=2) is 1 2 2 3 4 4 5 6 6 (positions 1..9); offset 2 selects
// positions 2, 5, 8 -> 2, 4, 6.
func TestCollapseOddWeightHandWorked(t *testing.T) {
	s := mustSketch(t, 2, 3, PolicyNew)
	before := s.evenHigh
	out := s.collapse([]*buffer{
		handBuffer([]float64{1, 3, 5}, 1),
		handBuffer([]float64{2, 4, 6}, 2),
	}, 1)
	if want := []float64{2, 4, 6}; !reflect.DeepEqual(out.data, want) {
		t.Fatalf("collapse output = %v, want %v", out.data, want)
	}
	if s.evenHigh != before {
		t.Fatal("odd-weight collapse toggled the even offset state")
	}
}

// TestCollapseDefinitelySmallCounting walks the Section 4.2 identification
// argument on the hand-worked example: s definitely-small elements in the
// output Y imply at least s*w(Y) - (w(Y) - offset) weighted definitely-
// small elements among the children.
func TestCollapseDefinitelySmallCounting(t *testing.T) {
	// From TestCollapseHandWorkedExample: Y = {3, 6, 9, 12}, w = 6,
	// offset = 4. Take Q = 9: Y has s = 2 definitely-small elements (3, 6).
	// The largest of them, 6, occupies positions 10-12 of the children's
	// weighted merge (its first copy sits at (s-1)*w + offset = 10), so the
	// weighted count of child elements <= 6 is 12, and the Section 4.2 step
	// guarantees at least s*w - (w - offset) = 12 - 2 = 10.
	children := []Weighted{
		{Data: []float64{1, 4, 7, 10}, Weight: 2},
		{Data: []float64{2, 5, 8, 11}, Weight: 1},
		{Data: []float64{3, 6, 9, 12}, Weight: 3},
	}
	var weightedSmall int64
	for _, c := range children {
		for _, v := range c.Data {
			if v <= 6 {
				weightedSmall += c.Weight
			}
		}
	}
	if weightedSmall != 12 {
		t.Fatalf("weighted definitely-small count = %d, want 12", weightedSmall)
	}
	const s, w, offset = 2, 6, 4
	if weightedSmall < s*w-(w-offset) {
		t.Fatalf("Lemma 4 step violated: %d < %d", weightedSmall, s*w-(w-offset))
	}
}

// collapseValues is what FuzzCollapse's runs hold besides quarter-integer
// ties: both zeros, both infinities, the extreme finite values and
// subnormals of both signs.
var collapseValues = []float64{
	math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 2.5e-310, 1,
	math.MaxFloat64, math.Inf(1),
}

// collapseCohort draws c sorted runs from raw, with values tied across runs
// and weights from 1 to 2^20. Each run holds k elements, or for k = 0 a
// length up to len(raw) of its own.
func collapseCohort(raw []byte, c, k int, seed int64) []Weighted {
	r := rand.New(rand.NewSource(seed))
	runs := make([]Weighted, c)
	for i := range runs {
		n := k
		if k == 0 {
			n = r.Intn(len(raw) + 1)
		}
		data := make([]float64, n)
		for j := range data {
			if b := raw[r.Intn(len(raw))]; b < 64 {
				data[j] = collapseValues[int(b)%len(collapseValues)]
			} else {
				data[j] = float64(int(b)-160) / 4
			}
		}
		sort.Float64s(data)
		runs[i] = Weighted{Data: data, Weight: 1 + r.Int63n(1<<r.Intn(21))}
	}
	return runs
}

// checkSelectEvery runs COLLAPSE's selection of k targets over runs with
// the offset collapse gives their total weight (for an even weight, the
// high or the low one) and requires the bits the merge walk picks.
func checkSelectEvery(t *testing.T, sc *scratch, runs []Weighted, k int, high bool) {
	t.Helper()
	var w int64
	for _, r := range runs {
		w += r.Weight
	}
	offset := w / 2
	if w%2 == 1 || high {
		offset = (w + 2) / 2
	}
	got := make([]float64, k)
	sc.selectEvery(runs, w, offset, got)
	targets := make([]int64, k)
	for j := range targets {
		targets[j] = int64(j)*w + offset
	}
	want := walkSelect(runs, targets)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("c=%d w=%d offset=%d: target %d picks %v (%#x), the walk %v (%#x)",
				len(runs), w, offset, targets[j], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// FuzzCollapse compares COLLAPSE's selection kernel with the merge walk bit
// for bit on fuzzed cohorts of 2 to 16 runs, as many targets as the longest
// run holds (so the shorter runs leave targets past the merge), and every
// offset rule: odd weights, and even ones with the high or the low offset.
func FuzzCollapse(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(0), int64(1), true)
	f.Add([]byte{4, 5, 4, 5, 200, 200, 161, 160, 159}, uint8(1), int64(2), false)
	f.Add([]byte("ties across runs at every weight"), uint8(14), int64(3), true)
	f.Fuzz(func(t *testing.T, raw []byte, c uint8, seed int64, high bool) {
		runs := collapseCohort(raw, 2+int(c)%15, 0, seed)
		k := 0
		for _, r := range runs {
			k = max(k, len(r.Data))
		}
		checkSelectEvery(t, new(scratch), runs, k, high)
	})
}

// TestSelectEveryMatchesWalk covers what the fuzz target does not reach by
// default: cohorts of 33 and 64 runs, the Alsabti-Ranka-Singh sizes the
// walk merged with its heap, in collapse's own shape (every run holds k
// elements) and with unequal runs, on one scratch reused as cohorts grow
// and shrink.
func TestSelectEveryMatchesWalk(t *testing.T) {
	raw := make([]byte, 256)
	for i := range raw {
		raw[i] = byte(i * 97)
	}
	var sc scratch
	for i, c := range []int{33, 64, 2, 40, 3, 5, 64, 8} {
		for _, high := range []bool{true, false} {
			checkSelectEvery(t, &sc, collapseCohort(raw, c, 100, int64(i)), 100, high)
			checkSelectEvery(t, &sc, collapseCohort(raw, c, 0, int64(i)), len(raw), high)
		}
	}
	// Targets past the merge take its last element: the walk's, the +0 that
	// follows the tied -0 of the lower run.
	zeros := []Weighted{
		{Data: []float64{-1, math.Copysign(0, -1)}, Weight: 1},
		{Data: []float64{0}, Weight: 1},
	}
	checkSelectEvery(t, &sc, zeros, 4, true)
}
