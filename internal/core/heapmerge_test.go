package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPropertyHeapMergeMatchesLinear: above mergeHeapThreshold buffers the
// heap path must select exactly what the linear scan selects (identical
// tie-breaking included).
func TestPropertyHeapMergeMatchesLinear(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := mergeHeapThreshold + 1 + r.Intn(40)
		bufs := make([]Weighted, nb)
		for i := range bufs {
			sz := r.Intn(8)
			data := make([]float64, sz)
			for j := range data {
				data[j] = float64(r.Intn(12)) // heavy ties across buffers
			}
			sort.Float64s(data)
			bufs[i] = Weighted{Data: data, Weight: int64(1 + r.Intn(5))}
		}
		total := totalWeight(bufs)
		nt := 1 + r.Intn(12)
		targets := make([]int64, nt)
		for i := range targets {
			targets[i] = int64(r.Intn(int(total)+3)) - 1 // include out-of-range
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

		heapTargets := append([]int64(nil), targets...)
		linTargets := append([]int64(nil), targets...)
		heapOut := make([]float64, nt)
		linOut := make([]float64, nt)
		var sc mergeScratch
		selectInMergeHeap(bufs, heapTargets, heapOut, &sc)
		// Force the linear path by splitting below the threshold is not
		// possible; call the linear algorithm directly on the same input.
		linearSelect(bufs, linTargets, linOut)
		for i := range heapOut {
			if heapOut[i] != linOut[i] && !(heapOut[i] != heapOut[i] && linOut[i] != linOut[i]) {
				t.Logf("seed=%d target=%d: heap %v vs linear %v", seed, targets[i], heapOut[i], linOut[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// linearSelect re-implements the linear scan for the equivalence test
// (selectInMergeScratch itself dispatches to the heap above the threshold).
func linearSelect(bufs []Weighted, targets []int64, out []float64) {
	heads := make([]int, len(bufs))
	var pos int64
	ti := 0
	clampLowTargets(targets)
	var last float64
	haveLast := false
	for ti < len(targets) {
		best := -1
		for i, b := range bufs {
			if heads[i] >= len(b.Data) {
				continue
			}
			if best == -1 || b.Data[heads[i]] < bufs[best].Data[heads[best]] {
				best = i
			}
		}
		if best == -1 {
			for ; ti < len(targets); ti++ {
				if haveLast {
					out[ti] = last
				} else {
					out[ti] = math.NaN()
				}
			}
			return
		}
		v := bufs[best].Data[heads[best]]
		heads[best]++
		pos += bufs[best].Weight
		last, haveLast = v, true
		for ti < len(targets) && targets[ti] <= pos {
			out[ti] = v
			ti++
		}
	}
}
