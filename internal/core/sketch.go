package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrEmpty is returned by queries against a sketch that has consumed no
// input.
var ErrEmpty = errors.New("core: sketch has seen no input")

// errNaN rejects inputs that have no position in the sorted order.
var errNaN = errors.New("core: NaN has no rank and cannot be added")

// Sketch is a single-pass approximate quantile summary: b buffers of k
// elements driven by a collapsing policy. The zero value is not usable; call
// NewSketch.
//
// A Sketch is not safe for concurrent use. For partitioned parallel
// computation use one Sketch per goroutine and combine them with the
// package-level Quantiles and ErrorBound (Section 4.9 of the paper).
type Sketch struct {
	b, k   int
	policy Policy
	runner policyRunner
	bufs   []*buffer
	fill   *buffer // buffer currently being filled; nil between fills
	count  int64   // input elements consumed
	stats  Stats

	// min and max track the exact extremes of the input: collapses may
	// drop the true minimum/maximum from the buffers, but phi = 0 and
	// phi = 1 can always be answered exactly from these two cells.
	min, max float64

	// evenHigh selects the offset of the next COLLAPSE whose output weight
	// is even: true picks (w+2)/2, false picks w/2. Successive even-weight
	// collapses alternate, which is what Lemma 1 needs.
	evenHigh bool

	// noAlternation freezes the even-weight offset at w/2 instead of
	// alternating. Only for the A1 ablation benchmark: it voids the Lemma 1
	// accounting, which is exactly what the ablation demonstrates.
	noAlternation bool

	// qry is the OUTPUT scratch; gen is the mutation generation that
	// invalidates its cached sorted copy of the mid-fill buffer.
	qry queryScratch
	gen uint64
}

// queryScratch is the OUTPUT scratch: per sketch for its own Quantiles and
// Rank calls, and pooled for a combine over several sketches, so warm
// queries allocate only their result slice.
type queryScratch struct {
	views    []Weighted
	tgts     []int64
	idx      []int
	picked   []float64
	exactIdx []int
	exactVal []float64

	// fill caches the sorted copy of the sketch's own mid-fill buffer; it
	// is rebuilt only when the sketch has mutated (fillGen != gen) since
	// the copy was made. fills holds a combine's sorted copies of its
	// sketches' mid-fill buffers.
	fill    []float64
	fillGen uint64
	fills   []float64

	sorter tgtSorter
	merge  mergeScratch
}

// scratch is the working memory of one COLLAPSE (operand views and
// weights, the inner merges of selectEvery and the k-element output) or one
// radix sort (keys and swap). Operations borrow it from scratchPool and
// return it when they finish, so a sketch at rest holds only its buffers,
// and steady-state operations still allocate nothing.
type scratch struct {
	views      []Weighted
	runW       []int64
	vals       [2][]float64
	wts        [2][]int64
	out        []float64
	keys, swap []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// tgtSorter orders the (tgts, idx) pair by target position; it exists so
// wide phi lists can use the stdlib sort without the per-call closure
// allocation of sort.Slice.
type tgtSorter struct {
	tgts []int64
	idx  []int
}

func (t *tgtSorter) Len() int           { return len(t.tgts) }
func (t *tgtSorter) Less(i, j int) bool { return t.tgts[i] < t.tgts[j] }
func (t *tgtSorter) Swap(i, j int) {
	t.tgts[i], t.tgts[j] = t.tgts[j], t.tgts[i]
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

// NewSketch returns a sketch with b buffers of k elements each using the
// given collapsing policy. The memory footprint is at most b*k elements plus
// O(b) bookkeeping: a buffer gets its k-element array the first time it
// fills, and COLLAPSE and sort scratch is borrowed per operation. Use
// internal/params to derive (b, k) from an accuracy target.
func NewSketch(b, k int, policy Policy) (*Sketch, error) {
	if b < 2 {
		return nil, fmt.Errorf("core: need at least 2 buffers, got %d", b)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: buffer size must be positive, got %d", k)
	}
	runner, err := policy.runner()
	if err != nil {
		return nil, err
	}
	s := &Sketch{
		b:        b,
		k:        k,
		policy:   policy,
		runner:   runner,
		bufs:     make([]*buffer, b),
		evenHigh: true,
		gen:      1, // nonzero so a zero fillGen can never look current
	}
	for i := range s.bufs {
		s.bufs[i] = new(buffer)
	}
	return s, nil
}

// B returns the number of buffers.
func (s *Sketch) B() int { return s.b }

// K returns the per-buffer capacity in elements.
func (s *Sketch) K() int { return s.k }

// Policy returns the collapsing policy in use.
func (s *Sketch) Policy() Policy { return s.policy }

// Count returns the number of input elements consumed so far.
func (s *Sketch) Count() int64 { return s.count }

// MemoryElements returns the provisioned buffer footprint b*k in elements.
func (s *Sketch) MemoryElements() int { return s.b * s.k }

// HeldElements returns the buffer elements actually allocated: at most
// MemoryElements, and one k-element array per buffer the data has filled.
func (s *Sketch) HeldElements() int {
	n := 0
	for _, b := range s.bufs {
		n += cap(b.data)
	}
	return n
}

// Stats returns a snapshot of the collapse accounting (C, W, leaves, ...).
func (s *Sketch) Stats() Stats { return s.stats }

// Reset restores the sketch to its freshly constructed state, retaining the
// allocated buffer arrays.
func (s *Sketch) Reset() {
	for _, b := range s.bufs {
		b.reset()
	}
	s.fill = nil
	s.count = 0
	s.stats = Stats{}
	s.evenHigh = true
	s.min, s.max = 0, 0
	s.gen++
}

// DisableOffsetAlternation freezes the even-weight collapse offset at w/2
// instead of alternating between w/2 and (w+2)/2. This voids the Lemma 1
// prerequisite and exists ONLY for the offset-alternation ablation
// benchmark; do not use it in production.
func (s *Sketch) DisableOffsetAlternation() { s.noAlternation = true }

// Add consumes one input element. NaN values are rejected because they have
// no position in the sorted order of the input.
func (s *Sketch) Add(v float64) error {
	if math.IsNaN(v) {
		return errNaN
	}
	s.gen++
	if s.fill == nil || cap(s.fill.data) < s.k {
		s.startFill()
	}
	s.fill.data = append(s.fill.data, v)
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	if len(s.fill.data) == s.k {
		s.completeFill()
	}
	return nil
}

// AddSlice consumes vs in order. It stops at the first NaN and reports it.
func (s *Sketch) AddSlice(vs []float64) error { return s.AddBatch(vs) }

// AddBatch consumes vs in order, amortizing the per-element Add overhead by
// copying whole runs into the fill buffer at once. It produces exactly the
// state an element-by-element Add loop would (same buffers, same collapse
// schedule, same Stats), only faster. Like AddSlice it stops at the first
// NaN, reporting its index; the elements before it stay consumed.
func (s *Sketch) AddBatch(vs []float64) error {
	if len(vs) > 0 {
		s.gen++
	}
	off := 0
	for off < len(vs) {
		if math.IsNaN(vs[off]) {
			return fmt.Errorf("core: element %d: %w", off, errNaN)
		}
		if s.fill == nil || cap(s.fill.data) < s.k {
			s.startFill()
		}
		take := s.k - len(s.fill.data)
		if rest := len(vs) - off; take > rest {
			take = rest
		}
		chunk := vs[off : off+take]
		// One fused scan: stop the bulk copy at the first NaN (the outer
		// loop reports it) and track the extremes of what precedes it.
		lo, hi := s.min, s.max
		if s.count == 0 {
			lo, hi = chunk[0], chunk[0]
		}
		for i, v := range chunk {
			if math.IsNaN(v) {
				chunk = chunk[:i]
				break
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		s.min, s.max = lo, hi
		s.fill.data = append(s.fill.data, chunk...)
		s.count += int64(len(chunk))
		off += len(chunk)
		if len(s.fill.data) == s.k {
			s.completeFill()
		}
	}
	return nil
}

// startFill readies a buffer to receive input. With none mid-fill it
// acquires an empty buffer from the policy (collapsing as needed). A buffer
// gets its k-element array here, on its first fill; a partial buffer that
// UnmarshalBinary restored at its own length grows to k once filling resumes.
func (s *Sketch) startFill() {
	if s.fill == nil {
		s.fill = s.runner.acquire(s)
		s.fill.data = s.fill.data[:0]
		s.fill.full = false
		s.fill.weight = 0
	}
	if cap(s.fill.data) < s.k {
		s.fill.data = append(make([]float64, 0, s.k), s.fill.data...)
	}
}

// completeFill seals the buffer currently being filled: the paper's NEW
// operation ends by sorting the buffer and stamping it weight 1.
func (s *Sketch) completeFill() {
	sortFloats(s.fill.data)
	s.fill.weight = 1
	s.fill.full = true
	s.stats.Leaves++
	s.fill = nil
}

// collapse performs the paper's COLLAPSE on the given full buffers, storing
// the k equally spaced elements of their weighted merge (selectEvery) into
// inputs[0] and marking the rest empty. The output buffer is stamped with
// level.
func (s *Sketch) collapse(inputs []*buffer, level int) *buffer {
	var w int64
	for _, in := range inputs {
		w += in.weight
	}
	var offset int64
	if w%2 == 1 {
		offset = (w + 1) / 2
	} else if s.noAlternation {
		offset = w / 2
	} else if s.evenHigh {
		offset = (w + 2) / 2
		s.evenHigh = false
	} else {
		offset = w / 2
		s.evenHigh = true
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	views := sc.views[:0]
	for _, in := range inputs {
		views = append(views, Weighted{Data: in.data, Weight: in.weight})
	}
	sc.out = growFloat64(sc.out, s.k)
	sc.selectEvery(views, w, offset, sc.out)
	clear(views) // a pooled scratch must not keep the buffers alive
	sc.views = views

	s.stats.Collapses++
	s.stats.WeightSum += w
	s.stats.OffsetSum += offset
	if w > s.stats.MaxCollapseWeight {
		s.stats.MaxCollapseWeight = w
	}

	dst := inputs[0]
	dst.data = append(dst.data[:0], sc.out...)
	dst.weight = w
	dst.level = level
	dst.full = true
	for _, in := range inputs[1:] {
		in.reset()
	}
	return dst
}

// fullBuffers appends the current full buffers to dst and returns it.
func (s *Sketch) fullBuffers(dst []*buffer) []*buffer {
	for _, b := range s.bufs {
		if b.full {
			dst = append(dst, b)
		}
	}
	return dst
}

func (s *Sketch) emptyBuffer() *buffer {
	for _, b := range s.bufs {
		if !b.full && b != s.fill {
			return b
		}
	}
	return nil
}

func (s *Sketch) countEmpty() int {
	n := 0
	for _, b := range s.bufs {
		if !b.full && b != s.fill {
			n++
		}
	}
	return n
}

// Min returns the exact minimum of the input consumed so far.
func (s *Sketch) Min() (float64, error) {
	if s.count == 0 {
		return math.NaN(), ErrEmpty
	}
	return s.min, nil
}

// Max returns the exact maximum of the input consumed so far.
func (s *Sketch) Max() (float64, error) {
	if s.count == 0 {
		return math.NaN(), ErrEmpty
	}
	return s.max, nil
}

// Quantile returns an approximation of the phi-quantile of the input
// consumed so far. phi must lie in [0, 1].
func (s *Sketch) Quantile(phi float64) (float64, error) {
	vs, err := s.Quantiles([]float64{phi})
	if err != nil {
		return math.NaN(), err
	}
	return vs[0], nil
}

// Quantiles returns approximations of the given quantiles in one pass over
// the surviving buffers: the paper's OUTPUT operation, which answers any
// number of quantiles at no extra memory cost (Section 4.7). It is the
// one-sketch case of the package-level Quantiles and runs on per-sketch
// scratch. Queries are non-destructive; the sketch can keep absorbing input
// afterwards.
func (s *Sketch) Quantiles(phis []float64) ([]float64, error) {
	return s.qry.quantiles([]*Sketch{s}, phis)
}

// insertionSortMax is the phi count above which sortTargets defers to the
// stdlib sort; below it the branch-light insertion sort wins and stays
// allocation-free.
const insertionSortMax = 32

// sortTargets orders the parallel (tgts, idx) slices by target position:
// insertion sort for the short lists dashboards actually request, stdlib
// sort (through the reusable tgtSorter, avoiding the sort.Slice closure)
// for pathological ones.
func sortTargets(tgts []int64, idx []int, sorter *tgtSorter) {
	if len(tgts) > insertionSortMax {
		sorter.tgts, sorter.idx = tgts, idx
		sort.Sort(sorter)
		return
	}
	for i := 1; i < len(tgts); i++ {
		t, id := tgts[i], idx[i]
		j := i - 1
		for ; j >= 0 && tgts[j] > t; j-- {
			tgts[j+1], idx[j+1] = tgts[j], idx[j]
		}
		tgts[j+1], idx[j+1] = t, id
	}
}

// growInt64 returns s resized to n, reallocating only when capacity lacks.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// FinalBuffersRaw returns copies of the buffers that would feed OUTPUT right
// now: the full buffers plus the partial fill buffer as a short sorted
// weight-1 buffer, so the weighted merge has exactly Count slots (see
// appendViews). The copies stay valid while the sketch keeps changing.
func (s *Sketch) FinalBuffersRaw() ([]Weighted, error) {
	if s.count == 0 {
		return nil, ErrEmpty
	}
	views := make([]Weighted, 0, s.b+1)
	for _, b := range s.bufs {
		if b.full {
			cp := make([]float64, len(b.data))
			copy(cp, b.data)
			views = append(views, Weighted{Data: cp, Weight: b.weight})
		}
	}
	if s.fill != nil && len(s.fill.data) > 0 {
		vals := make([]float64, len(s.fill.data))
		copy(vals, s.fill.data)
		sortFloats(vals)
		views = append(views, Weighted{Data: vals, Weight: 1})
	}
	return views, nil
}

// ErrorBound returns the a-posteriori Lemma 5 guarantee on the rank error
// of any quantile reported by Quantiles, in absolute ranks:
// (W - C - 1)/2 + wmax + A/2, where C and W account for the collapses that
// have actually happened, A for the absorbs, and wmax is the heaviest
// buffer that would feed OUTPUT. It is the one-sketch case of the
// package-level ErrorBound. Divide by Count for the epsilon it certifies.
func (s *Sketch) ErrorBound() float64 { return ErrorBound([]*Sketch{s}) }

// Clone returns an independent deep copy of s: same answers, bound and
// future collapse schedule. Only the buffers holding data get arrays, each
// at its own length; a partial buffer grows to k when filling resumes.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.runner, _ = s.policy.runner() // s's policy is valid
	c.bufs = make([]*buffer, len(s.bufs))
	c.fill = nil
	c.qry = queryScratch{}
	for i, b := range s.bufs {
		nb := *b
		nb.data = append([]float64(nil), b.data...)
		c.bufs[i] = &nb
		if b == s.fill {
			c.fill = &nb
		}
	}
	return &c
}
