package core

import (
	"fmt"
	"math"
	"sync"
)

// This file is the paper's OUTPUT operation for one sketch or many. Section
// 4.9 answers a partitioned stream with one OUTPUT over the concatenation of
// every partition's final buffers; a single sketch is the P = 1 case, so
// Sketch.Quantiles and Sketch.ErrorBound run the selection and the Lemma 5
// formula below, as does every combine.

// Quantiles answers phis over the union of the inputs of sketches with one
// OUTPUT over the concatenation of their final buffers (Section 4.9). Ranks
// 1 and N answer the pooled exact minimum and maximum. Empty sketches are
// skipped; ErrEmpty means none holds data. It reads the sketches' live
// buffers, so like any query it must not run concurrently with other use of
// them; a caller that cannot hold them still combines Clones. Its scratch,
// sorted copies of the partial buffers included, is borrowed from a pool,
// so no sketch keeps memory on a combine's behalf.
func Quantiles(sketches []*Sketch, phis []float64) ([]float64, error) {
	q := combinePool.Get().(*queryScratch)
	values, err := q.quantiles(sketches, phis)
	clear(q.views) // a pooled scratch must not keep the sketches' buffers alive
	combinePool.Put(q)
	return values, err
}

var combinePool = sync.Pool{New: func() any { return new(queryScratch) }}

// ErrorBound is the a-posteriori Lemma 5 guarantee on the rank error of any
// answer Quantiles gives over the same sketches, in absolute ranks: the
// telescoping over the forest of the P non-empty sketches' collapse trees
// hanging off one virtual root,
//
//	(W - C + P - 2)/2 + wmax + A/2,
//
// where W, C and A pool the sketches' collapse weight sums, collapse counts
// and absorbs (Stats) and wmax is the heaviest buffer that would feed
// OUTPUT. For P = 1 it is the single-sketch bound (W - C - 1)/2 + wmax +
// A/2. Divide by the pooled Count for the epsilon it certifies.
func ErrorBound(sketches []*Sketch) float64 {
	var w, c, a, wmax, p int64
	for _, s := range sketches {
		if s.count == 0 {
			continue
		}
		p++
		w += s.stats.WeightSum
		c += s.stats.Collapses
		a += s.stats.Absorbs
		for _, b := range s.bufs {
			if b.full && b.weight > wmax {
				wmax = b.weight
			}
		}
		if s.fill != nil && len(s.fill.data) > 0 && wmax < 1 {
			wmax = 1
		}
	}
	if p == 0 {
		return 0
	}
	return max(0, float64(w-c+p-2)/2+float64(wmax)+float64(a)/2)
}

// SelectQuantiles is OUTPUT's selection over weighted runs whose merge
// stands for count input elements with exact extremes lo and hi: each phi
// maps to rank ceil(phi*count), clamped to [1, count]; ranks 1 and count
// answer lo and hi, every other rank the element at that position of the
// weighted merge. Quantiles runs it over sketches' final buffers.
func SelectQuantiles(views []Weighted, count int64, lo, hi float64, phis []float64) ([]float64, error) {
	q := combinePool.Get().(*queryScratch)
	defer combinePool.Put(q)
	return q.selectRanks(views, count, lo, hi, phis)
}

// quantiles gathers the OUTPUT operands of the non-empty sketches with
// their pooled count and extremes, and selects phis over them.
func (q *queryScratch) quantiles(sketches []*Sketch, phis []float64) ([]float64, error) {
	views := q.views[:0]
	q.fills = q.fills[:0]
	var n int64
	var lo, hi float64
	for _, s := range sketches {
		if s.count == 0 {
			continue
		}
		if n == 0 || s.min < lo {
			lo = s.min
		}
		if n == 0 || s.max > hi {
			hi = s.max
		}
		n += s.count
		views = s.appendViews(views, q)
	}
	q.views = views
	if n == 0 {
		return nil, ErrEmpty
	}
	return q.selectRanks(views, n, lo, hi, phis)
}

// selectRanks is SelectQuantiles on q's scratch: everything below the
// result slice reuses it, so a warm query allocates only its answers.
func (q *queryScratch) selectRanks(views []Weighted, count int64, lo, hi float64, phis []float64) ([]float64, error) {
	for _, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			return nil, fmt.Errorf("core: quantile fraction %v outside [0,1]", phi)
		}
	}
	n := len(phis)
	q.tgts = growInt64(q.tgts, n)
	q.idx = growInt(q.idx, n)
	q.picked = growFloat64(q.picked, n)
	q.exactIdx = q.exactIdx[:0]
	q.exactVal = q.exactVal[:0]
	for i, phi := range phis {
		r := min(max(int64(math.Ceil(phi*float64(count))), 1), count)
		// Ranks 1 and N are known exactly; collapses may have dropped the
		// true extremes from the buffers.
		switch r {
		case 1:
			q.exactIdx = append(q.exactIdx, i)
			q.exactVal = append(q.exactVal, lo)
		case count:
			q.exactIdx = append(q.exactIdx, i)
			q.exactVal = append(q.exactVal, hi)
		}
		q.tgts[i] = r
		q.idx[i] = i
	}
	sortTargets(q.tgts, q.idx, &q.sorter)
	selectInMergeScratch(views, q.tgts, q.picked, &q.merge)
	out := make([]float64, n)
	for i, t := range q.idx {
		out[t] = q.picked[i]
	}
	for j, i := range q.exactIdx {
		out[i] = q.exactVal[j]
	}
	return out, nil
}

// appendViews appends s's OUTPUT operands to dst: the full buffers plus, if
// an input buffer is mid-fill, a sorted weight-1 copy of it at its own
// length. Every slot then stands for exactly its weight in real elements,
// so the weighted merge has exactly Count slots and rank r sits at position
// r. The paper instead pads the partial buffer to k with equal numbers of
// -Inf and +Inf sentinels and transposes phi to phi' = (2*phi + beta -
// 1)/(2*beta); that shifts every real position up by the same number of
// -Inf slots, so both forms select the same elements. The views alias live
// buffer data and q's sorted fill copies: they are valid until the next
// mutation of s or use of q.
func (s *Sketch) appendViews(dst []Weighted, q *queryScratch) []Weighted {
	for _, b := range s.bufs {
		if b.full {
			dst = append(dst, Weighted{Data: b.data, Weight: b.weight})
		}
	}
	if s.fill != nil && len(s.fill.data) > 0 {
		dst = append(dst, Weighted{Data: q.sortedFill(s), Weight: 1})
	}
	return dst
}

// sortedFill returns a sorted copy of s's mid-fill buffer. On s's own
// scratch the copy is cached until s mutates, so repeated reads between
// Adds sort the partial buffer once, not per query. A combine's scratch
// appends a fresh copy to q.fills instead: an earlier copy stays valid in
// the old array if the append moves q.fills.
func (q *queryScratch) sortedFill(s *Sketch) []float64 {
	if q != &s.qry {
		start := len(q.fills)
		q.fills = append(q.fills, s.fill.data...)
		sortFloats(q.fills[start:])
		return q.fills[start:]
	}
	if q.fillGen != s.gen {
		if n := len(s.fill.data); cap(q.fill) < n {
			// Grow geometrically, never past the k elements a fill holds.
			q.fill = make([]float64, 0, min(2*n, s.k))
		}
		q.fill = append(q.fill[:0], s.fill.data...)
		sortFloats(q.fill)
		q.fillGen = s.gen
	}
	return q.fill
}
