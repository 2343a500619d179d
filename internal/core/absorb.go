package core

import "fmt"

// Absorb merges the contents of other into s, leaving other untouched.
// Unlike the query-time combination of Quantiles, the result is a
// live sketch: it keeps absorbing input and keeps its Lemma 5 certificate.
//
// The merged buffer population can exceed b, so Absorb runs additional
// COLLAPSE operations to shrink it back: it repeatedly collapses the two
// lightest buffers, which minimises the growth of W (and therefore of the
// error bound). Lemma 5 holds for any collapse tree whose interior nodes
// have at least two children, so the certificate remains valid; the extra
// collapses are charged to the sketch's Stats like any other.
//
// Both sketches must share geometry and policy. other's partially filled
// buffer is replayed element-by-element at the end.
func (s *Sketch) Absorb(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if s == other {
		return fmt.Errorf("core: cannot absorb a sketch into itself")
	}
	if s.b != other.b || s.k != other.k || s.policy != other.policy {
		return fmt.Errorf("core: cannot absorb %v b=%d k=%d into %v b=%d k=%d",
			other.policy, other.b, other.k, s.policy, s.b, s.k)
	}
	sWasEmpty := s.count == 0
	s.gen++ // invalidate cached query state; the merge below mutates buffers

	// Gather the full buffers: s's own structs plus clones of other's.
	var list []*buffer
	for _, b := range s.bufs {
		if b.full {
			list = append(list, b)
		}
	}
	var wholeElements int64
	for _, b := range other.bufs {
		if b.full {
			clone := &buffer{
				data:   append(make([]float64, 0, s.k), b.data...),
				weight: b.weight,
				level:  b.level,
				full:   true,
			}
			list = append(list, clone)
			wholeElements += b.weight * int64(s.k)
		}
	}

	// Fold other's accounting in; the shrink collapses below add their own
	// contributions through s.collapse.
	s.count += wholeElements
	s.stats.Leaves += other.stats.Leaves
	s.stats.Collapses += other.stats.Collapses
	s.stats.WeightSum += other.stats.WeightSum
	s.stats.OffsetSum += other.stats.OffsetSum
	s.stats.Fallbacks += other.stats.Fallbacks
	s.stats.Absorbs += other.stats.Absorbs + 1
	if other.stats.MaxCollapseWeight > s.stats.MaxCollapseWeight {
		s.stats.MaxCollapseWeight = other.stats.MaxCollapseWeight
	}
	if sWasEmpty {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}

	// Shrink: keep one slot reserved for s's fill buffer if it is live.
	maxFull := s.b
	if s.fill != nil && len(s.fill.data) > 0 {
		maxFull--
	}
	for len(list) > maxFull {
		// Collapse the two lightest buffers (minimal W growth).
		sortBuffersByWeight(list)
		level := list[0].level
		if list[1].level > level {
			level = list[1].level
		}
		s.collapse(list[:2], level+1)
		list = append(list[:1], list[2:]...) // list[0] now holds the output
	}

	// Rebuild the physical buffer array: merged buffers, the live fill
	// buffer, then fresh empties.
	newBufs := make([]*buffer, 0, s.b)
	newBufs = append(newBufs, list...)
	if s.fill != nil && len(s.fill.data) > 0 {
		newBufs = append(newBufs, s.fill)
	} else {
		s.fill = nil
	}
	for len(newBufs) < s.b {
		newBufs = append(newBufs, new(buffer))
	}
	s.bufs = newBufs

	// Replay other's partial buffer as fresh input (updates count and
	// extremes through the normal path).
	if other.fill != nil {
		for _, v := range other.fill.data {
			if err := s.Add(v); err != nil {
				return err
			}
		}
	}
	return nil
}
