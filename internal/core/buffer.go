package core

import "math"

// buffer is one of the b physical buffers of the framework. While full, its
// data is sorted ascending and every element stands for weight input
// elements. A buffer that is neither full nor being filled is empty and its
// data slice has length zero; its array, nil until the buffer first fills,
// is kept for reuse.
type buffer struct {
	data   []float64
	weight int64
	level  int
	full   bool
}

func (b *buffer) reset() {
	b.data = b.data[:0]
	b.weight = 0
	b.level = 0
	b.full = false
}

// Weighted pairs a sorted run of elements with the number of input elements
// each entry represents. It is the exchange format for OUTPUT-style
// selections across sketches (e.g. the parallel root-combination phase of
// Section 4.9).
type Weighted struct {
	Data   []float64
	Weight int64
}

// mergeScratch holds the cursor state of one OUTPUT walk, so a sketch's
// repeated queries, and the combines that borrow a pooled queryScratch,
// reuse it instead of allocating per call.
type mergeScratch struct {
	heads []int
	heap  []mergeHead
}

// headsFor returns a zeroed cursor slice of length n.
func (m *mergeScratch) headsFor(n int) []int {
	if cap(m.heads) < n {
		m.heads = make([]int, n)
		return m.heads
	}
	h := m.heads[:n]
	for i := range h {
		h[i] = 0
	}
	return h
}

// heapFor returns an empty heap buffer with capacity for n entries.
func (m *mergeScratch) heapFor(n int) []mergeHead {
	if cap(m.heap) < n {
		m.heap = make([]mergeHead, 0, n)
	}
	return m.heap[:0]
}

// mergeHeapThreshold is the run count above which selectInMergeScratch
// switches from a linear head scan (O(c) per element, cache friendly,
// fastest for the few full buffers of one sketch) to a binary min-heap
// (O(log c) per element). OUTPUT merges every full buffer of every sketch
// it answers for: a combine of windows or partitions passes tens of runs,
// and a sketch with Table 1's larger b passes up to b.
const mergeHeapThreshold = 8

// selectInMergeScratch is OUTPUT's selection, and the oracle for
// COLLAPSE's selectEvery. It stores in out the elements at the given
// 1-based positions of the weighted merge of bufs without materialising the
// duplicate copies: while merging, a counter advances by the weight of the
// source buffer of each selected element, as described in Section 3.2 of
// the paper.
//
// Each buffer's Data must be sorted ascending and targets must be sorted
// ascending; out must be as long as targets. Positions beyond the total
// weighted length are clamped to the last element; positions below 1 are
// clamped to the first. The cursor state is the caller's: at steady state
// (sc already grown to the run count) a selection allocates nothing.
func selectInMergeScratch(bufs []Weighted, targets []int64, out []float64, sc *mergeScratch) {
	if len(targets) == 0 {
		return
	}
	if len(bufs) > mergeHeapThreshold {
		selectInMergeHeap(bufs, targets, out, sc)
		return
	}
	heads := sc.headsFor(len(bufs))
	var pos int64
	ti := 0
	clampLowTargets(targets)
	last := math.Inf(-1)
	haveLast := false
	for ti < len(targets) {
		// Pick the smallest head among non-exhausted buffers; ties break
		// toward the lowest buffer index for determinism.
		best := -1
		bestV := math.Inf(1)
		for i, b := range bufs {
			if heads[i] >= len(b.Data) {
				continue
			}
			if v := b.Data[heads[i]]; best == -1 || v < bestV {
				best, bestV = i, v
			}
		}
		if best == -1 {
			// Merge exhausted before all targets were reached: clamp the
			// remainder to the largest element seen.
			for ; ti < len(targets); ti++ {
				if haveLast {
					out[ti] = last
				} else {
					out[ti] = math.NaN()
				}
			}
			return
		}
		heads[best]++
		pos += bufs[best].Weight
		last, haveLast = bestV, true
		for ti < len(targets) && targets[ti] <= pos {
			out[ti] = bestV
			ti++
		}
	}
}

// clampLowTargets raises leading sub-1 positions to 1 so the merge loops
// can assume 1-based targets (targets are sorted ascending).
func clampLowTargets(targets []int64) {
	for i := range targets {
		if targets[i] >= 1 {
			return
		}
		targets[i] = 1
	}
}

// mergeHead is a heap entry: the current front element of one buffer.
// Ordering is (value, buffer index), matching the linear scan's
// lowest-index tie-break so both paths produce identical selections.
type mergeHead struct {
	v   float64
	buf int
}

func headLess(a, b mergeHead) bool {
	return a.v < b.v || (a.v == b.v && a.buf < b.buf)
}

// selectInMergeHeap is the wide-merge variant of selectInMergeScratch: a
// binary min-heap over the buffer fronts.
func selectInMergeHeap(bufs []Weighted, targets []int64, out []float64, sc *mergeScratch) {
	heads := sc.headsFor(len(bufs))
	h := sc.heapFor(len(bufs))
	for i, b := range bufs {
		if len(b.Data) > 0 {
			h = append(h, mergeHead{v: b.Data[0], buf: i})
			heads[i] = 1
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	ti := 0
	clampLowTargets(targets)
	var pos int64
	last := math.Inf(-1)
	haveLast := false
	for ti < len(targets) {
		if len(h) == 0 {
			for ; ti < len(targets); ti++ {
				if haveLast {
					out[ti] = last
				} else {
					out[ti] = math.NaN()
				}
			}
			return
		}
		top := h[0]
		pos += bufs[top.buf].Weight
		last, haveLast = top.v, true
		if hi := heads[top.buf]; hi < len(bufs[top.buf].Data) {
			h[0] = mergeHead{v: bufs[top.buf].Data[hi], buf: top.buf}
			heads[top.buf]++
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 1 {
			siftDown(h, 0)
		}
		for ti < len(targets) && targets[ti] <= pos {
			out[ti] = top.v
			ti++
		}
	}
}

func siftDown(h []mergeHead, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && headLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && headLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
