package core

import "math"

// This file is COLLAPSE's selection (Section 3.2): the element at every
// w-th position, from offset on, of the weighted merge of c sorted buffers.
// OUTPUT asks for a few arbitrary ranks and keeps the merge walk of
// buffer.go. COLLAPSE visits every merged element, and the walk's choice of
// the smallest head is an unpredictable branch per element, so COLLAPSE
// merges through a balanced tree of stable two-way merges whose per-element
// choice is a flag and a bit mask, not a branch, and picks its targets at
// the root without storing the root's merge.

// mergeRun is one operand of a two-way merge: ascending values and their
// weights. A buffer's run gives all its elements one weight (w has length 1
// and mask is 0); a merged run stores one weight per element (mask is all
// ones), so w[i&mask] reads either without a branch.
type mergeRun struct {
	v    []float64
	w    []int64
	mask int
}

// selectEvery stores into out[j] the element at position offset + j*w of
// the weighted merge of runs, where w is the runs' total weight and
// 1 <= offset. Like selectInMergeScratch it breaks ties toward the lower run
// index, so both pick the same element bit for bit, signed zeros included;
// positions past the merge take its largest element, and an empty merge
// gives NaN. Inner merges write (value, weight) pairs into sc: value and
// weight arrays of the runs' total length, two of each used ping-pong;
// c = 2 is just the root.
func (sc *scratch) selectEvery(runs []Weighted, w, offset int64, out []float64) {
	n := 0
	sc.runW = growInt64(sc.runW, len(runs))
	for i, r := range runs {
		n += len(r.Data)
		sc.runW[i] = r.Weight
	}
	if len(runs) > 2 {
		for d := range sc.vals {
			sc.vals[d] = growFloat64(sc.vals[d], n)
			sc.wts[d] = growInt64(sc.wts[d], n)
		}
	}
	mid := len(runs) / 2
	left := sc.mergeTree(runs, 0, mid, 0, 0)
	right := sc.mergeTree(runs, mid, len(runs), 0, len(left.v))
	o := pickEvery(left, right, w, offset, out)
	if o == len(out) {
		return
	}
	// The merge ran out first: the rest clamp to its last element, the last
	// one of the highest run whose last value is the largest (the first
	// non-empty run replaces the NaN, which compares false).
	last := math.NaN()
	for _, r := range runs {
		if n := len(r.Data); n > 0 && !(r.Data[n-1] < last) {
			last = r.Data[n-1]
		}
	}
	for ; o < len(out); o++ {
		out[o] = last
	}
}

// mergeTree returns the stable merge of runs[lo:hi]. A single run is
// returned as it is; a merge is stored in scratch array d from index off,
// and its two halves are built in the other array first.
func (sc *scratch) mergeTree(runs []Weighted, lo, hi, d, off int) mergeRun {
	switch hi - lo {
	case 0:
		return mergeRun{}
	case 1:
		return mergeRun{v: runs[lo].Data, w: sc.runW[lo : lo+1]}
	}
	mid := (lo + hi) / 2
	left := sc.mergeTree(runs, lo, mid, 1-d, off)
	right := sc.mergeTree(runs, mid, hi, 1-d, off+len(left.v))
	n := len(left.v) + len(right.v)
	m := mergeRun{v: sc.vals[d][off : off+n], w: sc.wts[d][off : off+n], mask: -1}
	mergeTwo(left, right, m.v, m.w)
	return m
}

// mergeTwo stores the merge of a and b into (dv, dw), which have room for
// both. On equal values a's element goes first.
func mergeTwo(a, b mergeRun, dv []float64, dw []int64) {
	av, aw, am := a.v, a.w, a.mask
	bv, bw, bm := b.v, b.w, b.mask
	i, j, o := 0, 0, 0
	for i < len(av) && j < len(bv) {
		t := b2i(bv[j] < av[i])
		dv[o] = chooseFloat(av[i], bv[j], t)
		dw[o] = chooseInt(aw[i&am], bw[j&bm], t)
		i += 1 - t
		j += t
		o++
	}
	for ; i < len(av); i++ {
		dv[o], dw[o] = av[i], aw[i&am]
		o++
	}
	for ; j < len(bv); j++ {
		dv[o], dw[o] = bv[j], bw[j&bm]
		o++
	}
}

// pickEvery walks the merge of a and b, as mergeTwo orders it, without
// storing it, and writes into out[j] the element covering weighted position
// offset + j*w; rem counts the positions left to the next target. Every
// element is written in place until one reaches its target, and none weighs
// more than w, so none covers two targets. It returns how many targets it
// filled before the targets or the merge ran out.
func pickEvery(a, b mergeRun, w, offset int64, out []float64) int {
	av, aw, am := a.v, a.w, a.mask
	bv, bw, bm := b.v, b.w, b.mask
	i, j, o, rem := 0, 0, 0, offset
	for i < len(av) && j < len(bv) && o < len(out) {
		t := b2i(bv[j] < av[i])
		out[o] = chooseFloat(av[i], bv[j], t)
		rem -= chooseInt(aw[i&am], bw[j&bm], t)
		hit := b2i(rem <= 0)
		o += hit
		rem += w & -int64(hit)
		i += 1 - t
		j += t
	}
	// At most one run has elements left.
	rv, rw, rm, r := av, aw, am, i
	if i == len(av) {
		rv, rw, rm, r = bv, bw, bm, j
	}
	for ; r < len(rv) && o < len(out); r++ {
		out[o] = rv[r]
		rem -= rw[r&rm]
		hit := b2i(rem <= 0)
		o += hit
		rem += w & -int64(hit)
	}
	return o
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// chooseFloat returns x if t is 0 and y if t is 1, by masking bits.
func chooseFloat(x, y float64, t int) float64 {
	xb := math.Float64bits(x)
	return math.Float64frombits(xb ^ (xb^math.Float64bits(y))&-uint64(t))
}

// chooseInt returns x if t is 0 and y if t is 1, by masking bits.
func chooseInt(x, y int64, t int) int64 {
	return x ^ (x^y)&-int64(t)
}
