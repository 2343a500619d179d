// Package ordered generalises the MRL one-pass quantile framework to any
// totally ordered element type: strings (range-partitioning splitters for
// VARCHAR keys, the DeWitt et al. distributed-sort application over text
// keys), time stamps, big integers — anything with a comparison function.
//
// The algorithm is the paper's new collapsing policy exactly as in package
// quantile. Like it, the partial buffer participates in OUTPUT as a short
// weight-1 buffer instead of being padded with -Inf/+Inf sentinels (which
// do not exist for an arbitrary type): an exact accounting of its elements
// that selects what the padded form selects. The Lemma 5 guarantee is
// unchanged.
//
// Use package quantile for float64 data: it is faster and adds the
// sampling coupling, serialisation and rank queries.
package ordered

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mrl/internal/params"
)

// ErrEmpty is returned by queries against a sketch that has seen no input.
var ErrEmpty = errors.New("ordered: sketch has seen no input")

// Sketch is a single-pass epsilon-approximate quantile summary over an
// ordered element type T. It is not safe for concurrent use.
type Sketch[T any] struct {
	cmp  func(a, b T) int
	b, k int

	bufs []*buf[T]
	fill *buf[T]

	count     int64
	collapses int64
	weightSum int64
	evenHigh  bool

	hasExtremes bool
	min, max    T
}

type buf[T any] struct {
	data   []T
	weight int64
	level  int
	full   bool
}

// New provisions a sketch for the accuracy contract (epsilon, n) using the
// paper's new-policy optimizer, with cmp as the total order (negative,
// zero, positive like cmp.Compare / strings.Compare).
func New[T any](epsilon float64, n int64, cmp func(a, b T) int) (*Sketch[T], error) {
	if cmp == nil {
		return nil, errors.New("ordered: nil comparator")
	}
	plan, err := params.OptimizeNew(epsilon, n)
	if err != nil {
		return nil, err
	}
	return NewWithGeometry(plan.B, plan.K, cmp)
}

// NewWithGeometry builds a sketch with explicit buffer geometry.
func NewWithGeometry[T any](b, k int, cmp func(a, b T) int) (*Sketch[T], error) {
	if cmp == nil {
		return nil, errors.New("ordered: nil comparator")
	}
	if b < 2 {
		return nil, fmt.Errorf("ordered: need at least 2 buffers, got %d", b)
	}
	if k < 1 {
		return nil, fmt.Errorf("ordered: buffer size must be positive, got %d", k)
	}
	s := &Sketch[T]{cmp: cmp, b: b, k: k, evenHigh: true}
	s.bufs = make([]*buf[T], b)
	for i := range s.bufs {
		s.bufs[i] = &buf[T]{data: make([]T, 0, k)}
	}
	return s, nil
}

// Count returns the number of elements consumed.
func (s *Sketch[T]) Count() int64 { return s.count }

// Reset discards all consumed data, keeping the geometry and comparator
// (buffers are reused).
func (s *Sketch[T]) Reset() {
	for _, b := range s.bufs {
		b.data = b.data[:0]
		b.weight = 0
		b.level = 0
		b.full = false
	}
	s.fill = nil
	s.count = 0
	s.collapses = 0
	s.weightSum = 0
	s.evenHigh = true
	s.hasExtremes = false
	var zero T
	s.min, s.max = zero, zero
}

// MemoryElements returns the buffer footprint b*k in elements.
func (s *Sketch[T]) MemoryElements() int { return s.b * s.k }

// ErrorBound returns the live Lemma 5 rank-error bound.
func (s *Sketch[T]) ErrorBound() float64 {
	if s.count == 0 {
		return 0
	}
	var wmax int64
	for _, b := range s.bufs {
		if b.full && b.weight > wmax {
			wmax = b.weight
		}
	}
	if s.fill != nil && len(s.fill.data) > 0 && wmax < 1 {
		wmax = 1
	}
	v := float64(s.weightSum-s.collapses-1)/2 + float64(wmax)
	if v < 0 {
		return 0
	}
	return v
}

// Add consumes one element.
func (s *Sketch[T]) Add(v T) error {
	if s.cmp(v, v) != 0 {
		// NaN-like values (not equal to themselves) have no rank.
		return errors.New("ordered: element is not equal to itself and has no rank")
	}
	if s.fill == nil {
		s.fill = s.acquire()
		s.fill.data = s.fill.data[:0]
		s.fill.full = false
		s.fill.weight = 0
	}
	s.fill.data = append(s.fill.data, v)
	if !s.hasExtremes {
		s.min, s.max, s.hasExtremes = v, v, true
	} else {
		if s.cmp(v, s.min) < 0 {
			s.min = v
		}
		if s.cmp(v, s.max) > 0 {
			s.max = v
		}
	}
	s.count++
	if len(s.fill.data) == s.k {
		sort.SliceStable(s.fill.data, func(i, j int) bool { return s.cmp(s.fill.data[i], s.fill.data[j]) < 0 })
		s.fill.weight = 1
		s.fill.full = true
		s.fill = nil
	}
	return nil
}

// acquire implements the new policy's level schedule (Section 3.4).
func (s *Sketch[T]) acquire() *buf[T] {
	for {
		empties := 0
		var empty *buf[T]
		minLevel, seen := 0, false
		for _, b := range s.bufs {
			if b.full {
				if !seen || b.level < minLevel {
					minLevel, seen = b.level, true
				}
			} else if b != s.fill {
				empties++
				empty = b
			}
		}
		switch {
		case empties >= 2:
			empty.level = 0
			return empty
		case empties == 1:
			empty.level = minLevel
			return empty
		}
		// No empties: collapse the minimum-level cohort.
		var cohort []*buf[T]
		for _, b := range s.bufs {
			if b.full && b.level == minLevel {
				cohort = append(cohort, b)
			}
		}
		if len(cohort) < 2 {
			cohort = cohort[:0]
			for _, b := range s.bufs {
				if b.full {
					cohort = append(cohort, b)
				}
			}
		}
		s.collapse(cohort, minLevel+1)
	}
}

// collapse is the paper's COLLAPSE with the Lemma 1 offset alternation.
func (s *Sketch[T]) collapse(inputs []*buf[T], level int) {
	var w int64
	for _, in := range inputs {
		w += in.weight
	}
	var offset int64
	switch {
	case w%2 == 1:
		offset = (w + 1) / 2
	case s.evenHigh:
		offset = (w + 2) / 2
		s.evenHigh = false
	default:
		offset = w / 2
		s.evenHigh = true
	}
	targets := make([]int64, s.k)
	for j := range targets {
		targets[j] = int64(j)*w + offset
	}
	out := s.selectMerge(inputs, targets)

	s.collapses++
	s.weightSum += w

	dst := inputs[0]
	dst.data = append(dst.data[:0], out...)
	dst.weight = w
	dst.level = level
	dst.full = true
	for _, in := range inputs[1:] {
		in.data = in.data[:0]
		in.weight = 0
		in.full = false
	}
}

// selectMerge picks the elements at the given 1-based positions of the
// weighted merge of the input buffers (duplicates never materialised).
func (s *Sketch[T]) selectMerge(inputs []*buf[T], targets []int64) []T {
	heads := make([]int, len(inputs))
	out := make([]T, 0, len(targets))
	var pos int64
	ti := 0
	var last T
	haveLast := false
	for ti < len(targets) {
		best := -1
		for i, b := range inputs {
			if heads[i] >= len(b.data) {
				continue
			}
			if best == -1 || s.cmp(b.data[heads[i]], inputs[best].data[heads[best]]) < 0 {
				best = i
			}
		}
		if best == -1 {
			for ; ti < len(targets); ti++ {
				if haveLast {
					out = append(out, last)
				}
			}
			return out
		}
		v := inputs[best].data[heads[best]]
		heads[best]++
		pos += inputs[best].weight
		last, haveLast = v, true
		for ti < len(targets) && targets[ti] <= pos {
			out = append(out, v)
			ti++
		}
	}
	return out
}

// Quantile returns an approximation of the phi-quantile, phi in [0, 1].
// Ranks 1 and N (phi near the extremes) are exact.
func (s *Sketch[T]) Quantile(phi float64) (T, error) {
	vs, err := s.Quantiles([]float64{phi})
	if err != nil {
		var zero T
		return zero, err
	}
	return vs[0], nil
}

// Quantiles answers several quantiles in one merge pass; the result is
// parallel to phis.
func (s *Sketch[T]) Quantiles(phis []float64) ([]T, error) {
	if s.count == 0 {
		return nil, ErrEmpty
	}
	for _, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			return nil, fmt.Errorf("ordered: quantile fraction %v outside [0,1]", phi)
		}
	}
	// Assemble OUTPUT operands; the partial buffer joins unpadded as a
	// short weight-1 buffer (exact accounting; see the package comment).
	var views []*buf[T]
	for _, b := range s.bufs {
		if b.full {
			views = append(views, b)
		}
	}
	var partial *buf[T]
	if s.fill != nil && len(s.fill.data) > 0 {
		sorted := append([]T(nil), s.fill.data...)
		sort.SliceStable(sorted, func(i, j int) bool { return s.cmp(sorted[i], sorted[j]) < 0 })
		partial = &buf[T]{data: sorted, weight: 1}
		views = append(views, partial)
	}

	type tgt struct {
		pos int64
		idx int
	}
	tgts := make([]tgt, 0, len(phis))
	out := make([]T, len(phis))
	for i, phi := range phis {
		r := int64(math.Ceil(phi * float64(s.count)))
		if r < 1 {
			r = 1
		}
		if r > s.count {
			r = s.count
		}
		switch r {
		case 1:
			out[i] = s.min
		case s.count:
			out[i] = s.max
		default:
			tgts = append(tgts, tgt{pos: r, idx: i})
		}
	}
	sort.Slice(tgts, func(i, j int) bool { return tgts[i].pos < tgts[j].pos })
	positions := make([]int64, len(tgts))
	for i, t := range tgts {
		positions[i] = t.pos
	}
	picked := s.selectMerge(views, positions)
	for i, t := range tgts {
		out[t.idx] = picked[i]
	}
	return out, nil
}

// Splitters returns parts-1 splitter values at the i/parts-quantiles: the
// value-range partitioning application for ordered keys.
func (s *Sketch[T]) Splitters(parts int) ([]T, error) {
	if parts < 2 {
		return nil, fmt.Errorf("ordered: need at least 2 partitions, got %d", parts)
	}
	phis := make([]float64, parts-1)
	for i := range phis {
		phis[i] = float64(i+1) / float64(parts)
	}
	return s.Quantiles(phis)
}
