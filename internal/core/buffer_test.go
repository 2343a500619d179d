package core

import (
	"math"
	"reflect"
	"testing"
)

// walkSelect runs OUTPUT's walk on fresh cursor state.
func walkSelect(bufs []Weighted, targets []int64) []float64 {
	out := make([]float64, len(targets))
	var sc mergeScratch
	selectInMergeScratch(bufs, targets, out, &sc)
	return out
}

// totalWeight is the weighted length of the merge of bufs: the number of
// (virtual) copies the paper's COLLAPSE and OUTPUT operators sort.
func totalWeight(bufs []Weighted) int64 {
	var t int64
	for _, b := range bufs {
		t += b.Weight * int64(len(b.Data))
	}
	return t
}

func TestSelectInMergeSingleBuffer(t *testing.T) {
	bufs := []Weighted{{Data: []float64{10, 20, 30, 40}, Weight: 1}}
	got := walkSelect(bufs, []int64{1, 2, 3, 4})
	want := []float64{10, 20, 30, 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestSelectInMergeWeighted(t *testing.T) {
	// Weighted merge of {1,3} (w=2) and {2,4} (w=3) expands to the virtual
	// sequence 1,1,2,2,2,3,3,4,4,4 (positions 1..10).
	bufs := []Weighted{
		{Data: []float64{1, 3}, Weight: 2},
		{Data: []float64{2, 4}, Weight: 3},
	}
	targets := []int64{1, 2, 3, 5, 6, 7, 8, 10}
	want := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	got := walkSelect(bufs, targets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestSelectInMergeClamping(t *testing.T) {
	bufs := []Weighted{{Data: []float64{5, 6}, Weight: 2}}
	got := walkSelect(bufs, []int64{-3, 0, 4, 9})
	want := []float64{5, 5, 6, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestSelectInMergeEmptyTargets(t *testing.T) {
	bufs := []Weighted{{Data: []float64{1}, Weight: 1}}
	if got := walkSelect(bufs, nil); len(got) != 0 {
		t.Fatalf("walk with no targets = %v, want empty", got)
	}
}

func TestSelectInMergeNoData(t *testing.T) {
	got := walkSelect(nil, []int64{1})
	if len(got) != 1 || !math.IsNaN(got[0]) {
		t.Fatalf("walk over no buffers = %v, want [NaN]", got)
	}
}

func TestSelectInMergeDuplicates(t *testing.T) {
	bufs := []Weighted{
		{Data: []float64{7, 7, 7}, Weight: 1},
		{Data: []float64{7, 8}, Weight: 2},
	}
	// Virtual sequence: 7,7,7,7,7,8,8 (the weight-2 seven first on ties is
	// an implementation detail; values are all that matters).
	got := walkSelect(bufs, []int64{1, 5, 6, 7})
	want := []float64{7, 7, 8, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestSelectInMergeTieBreakDeterministic(t *testing.T) {
	bufs := []Weighted{
		{Data: []float64{1, 2}, Weight: 5},
		{Data: []float64{1, 2}, Weight: 1},
	}
	a := walkSelect(bufs, []int64{1, 6, 7, 12})
	b := walkSelect(bufs, []int64{1, 6, 7, 12})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("walk not deterministic: %v vs %v", a, b)
	}
}

func TestTotalWeight(t *testing.T) {
	bufs := []Weighted{
		{Data: []float64{1, 2, 3}, Weight: 2},
		{Data: []float64{4}, Weight: 5},
	}
	if got := totalWeight(bufs); got != 11 {
		t.Fatalf("totalWeight = %d, want 11", got)
	}
	if got := totalWeight(nil); got != 0 {
		t.Fatalf("totalWeight(nil) = %d, want 0", got)
	}
}

// TestSelectInMergeAgainstMaterialized cross-checks the counter-based
// selection against a brute-force expansion of the weighted merge.
func TestSelectInMergeAgainstMaterialized(t *testing.T) {
	bufs := []Weighted{
		{Data: []float64{2, 9, 9, 15}, Weight: 3},
		{Data: []float64{1, 9, 20, 21}, Weight: 2},
		{Data: []float64{5, 6, 7, 22}, Weight: 1},
	}
	var expanded []float64
	for _, b := range bufs {
		for _, v := range b.Data {
			for i := int64(0); i < b.Weight; i++ {
				expanded = append(expanded, v)
			}
		}
	}
	// Sort the expansion (insertion sort keeps the test dependency-free).
	for i := 1; i < len(expanded); i++ {
		for j := i; j > 0 && expanded[j] < expanded[j-1]; j-- {
			expanded[j], expanded[j-1] = expanded[j-1], expanded[j]
		}
	}
	targets := make([]int64, len(expanded))
	for i := range targets {
		targets[i] = int64(i + 1)
	}
	got := walkSelect(bufs, targets)
	if !reflect.DeepEqual(got, expanded) {
		t.Fatalf("walk = %v\nwant full expansion %v", got, expanded)
	}
}
