// Package kll implements the KLL streaming quantile sketch of Karnin,
// Lang and Liberty, "Optimal Quantile Approximation in Streams" (FOCS
// 2016). Unlike the MRL summaries in internal/core, a KLL sketch needs no
// a-priori stream length: it is sized by a single accuracy parameter k and
// keeps absorbing elements forever in O(k) space, which makes it the right
// backend for unbounded or badly mis-estimated streams.
//
// The sketch is a stack of compactors. Level h holds items of weight 2^h;
// capacities shrink geometrically from k at the top level down to a floor
// of two, so almost all memory sits in the two cheapest-to-maintain levels.
// Compaction is lazy: nothing happens until the total occupancy exceeds the
// capacity budget, and then only the lowest overfull level is compacted —
// sorted, split into adjacent pairs, and one item of each pair (chosen by a
// seeded coin flip per compaction) promoted with doubled weight.
//
// Each compaction at level h moves every rank estimate by at most 2^h, in
// a direction decided by the coin, with zero mean. The sketch therefore
// tracks two a-posteriori error bounds over the compactions that actually
// happened: a deterministic worst case (the sum of the 2^h terms) and a
// Hoeffding bound at confidence 1-delta over the independent coin flips
// (sqrt(2 * sum 4^h * ln(2/delta))). ErrorBound reports the smaller; for
// long streams the probabilistic bound wins by a wide margin, which is the
// whole point of the KLL construction.
package kll

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrEmpty is returned by queries against a sketch that has consumed no
// input.
var ErrEmpty = errors.New("kll: empty sketch")

// capacityRatio is the geometric decay of compactor capacities from the
// top level downward; 2/3 is the constant the KLL paper analyses.
const capacityRatio = 2.0 / 3.0

// minCapacity is the capacity floor of the shrinking schedule.
const minCapacity = 2

// DefaultDelta is the confidence parameter of the probabilistic error
// bound when the caller does not choose one: bounds reported by ErrorBound
// hold with probability at least 1 - DefaultDelta. It is chosen so small
// that a single observed violation across any realistic test campaign is
// overwhelming evidence of an implementation bug rather than bad luck.
const DefaultDelta = 1e-12

// MinK is the smallest accepted accuracy parameter.
const MinK = 2

// Sketch is a KLL quantile sketch. It is not safe for concurrent use.
type Sketch struct {
	k     int
	delta float64
	rng   uint64 // xorshift64 state; seeded, serialised, replayable

	compactors [][]float64 // level h holds items of weight 2^h
	caps       []int       // capacity per level under the current height
	size       int         // total items across levels
	budget     int         // sum of caps

	count       int64
	min, max    float64
	compactions []int64 // compaction operations per level
	absorbs     int64
}

// New returns a sketch with accuracy parameter k (larger is more accurate:
// the steady-state rank error is O(count/k) with high probability) and the
// given coin-flip seed. Two sketches with the same k, seed and input are
// bit-identical. delta <= 0 selects DefaultDelta.
func New(k int, seed int64, delta float64) (*Sketch, error) {
	if k < MinK {
		return nil, fmt.Errorf("kll: k %d below minimum %d", k, MinK)
	}
	if delta <= 0 {
		delta = DefaultDelta
	}
	if delta >= 1 {
		return nil, fmt.Errorf("kll: delta %v outside (0,1)", delta)
	}
	s := &Sketch{k: k, delta: delta, rng: seedState(seed)}
	s.grow() // level 0
	return s, nil
}

// seedState whitens a caller seed into a non-zero xorshift64 state.
func seedState(seed int64) uint64 {
	st := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	if st == 0 {
		st = 0x9e3779b97f4a7c15
	}
	return st
}

// coin consumes one pseudo-random bit from the serialised generator state.
func (s *Sketch) coin() int {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return int(s.rng & 1)
}

// grow adds one level on top and recomputes the capacity schedule.
func (s *Sketch) grow() {
	s.compactors = append(s.compactors, nil)
	s.recap()
}

// recap rebuilds the capacity schedule for the current height: the top
// level gets capacity k and every level below shrinks by capacityRatio per
// step, floored at minCapacity.
func (s *Sketch) recap() {
	h := len(s.compactors)
	s.caps = s.caps[:0]
	s.budget = 0
	for lvl := 0; lvl < h; lvl++ {
		c := float64(s.k) * math.Pow(capacityRatio, float64(h-1-lvl))
		cap := int(math.Ceil(c))
		if cap < minCapacity {
			cap = minCapacity
		}
		s.caps = append(s.caps, cap)
		s.budget += cap
	}
}

// K returns the accuracy parameter.
func (s *Sketch) K() int { return s.k }

// Delta returns the confidence parameter of the probabilistic bound.
func (s *Sketch) Delta() float64 { return s.delta }

// Count returns the number of elements consumed.
func (s *Sketch) Count() int64 { return s.count }

// Levels returns the current compactor-stack height.
func (s *Sketch) Levels() int { return len(s.compactors) }

// Compactions returns the total number of compaction operations performed.
func (s *Sketch) Compactions() int64 {
	var total int64
	for _, c := range s.compactions {
		total += c
	}
	return total
}

// Absorbs returns the number of sketches folded in via Absorb.
func (s *Sketch) Absorbs() int64 { return s.absorbs }

// MemoryElements returns the capacity budget in elements — the footprint
// the sketch may grow to at its current height.
func (s *Sketch) MemoryElements() int { return s.budget }

// Min returns the exact minimum consumed so far (tracked outside the
// compactors, so it survives compaction).
func (s *Sketch) Min() (float64, error) {
	if s.count == 0 {
		return math.NaN(), ErrEmpty
	}
	return s.min, nil
}

// Max returns the exact maximum consumed so far.
func (s *Sketch) Max() (float64, error) {
	if s.count == 0 {
		return math.NaN(), ErrEmpty
	}
	return s.max, nil
}

// Add consumes one element. NaN is rejected; +/-Inf are ordinary values.
func (s *Sketch) Add(v float64) error {
	if math.IsNaN(v) {
		return errors.New("kll: NaN has no rank and cannot be added")
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.compactors[0] = append(s.compactors[0], v)
	s.size++
	s.count++
	if s.size >= s.budget {
		s.compress()
	}
	return nil
}

// AddBatch consumes a batch, all-or-nothing on NaN: the batch is scanned
// first and rejected whole (reporting the offending index) before any
// element lands.
func (s *Sketch) AddBatch(vs []float64) error {
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("kll: element %d: NaN has no rank and cannot be added", i)
		}
	}
	for _, v := range vs {
		if s.count == 0 || v < s.min {
			s.min = v
		}
		if s.count == 0 || v > s.max {
			s.max = v
		}
		s.compactors[0] = append(s.compactors[0], v)
		s.size++
		s.count++
		if s.size >= s.budget {
			s.compress()
		}
	}
	return nil
}

// compress performs lazy compaction: while the sketch is over budget, the
// lowest level at or above its capacity is compacted once. The loop is
// bounded by the stack height per invocation in practice; the hard cap only
// guards against a logic error turning it infinite.
func (s *Sketch) compress() {
	for guard := 0; s.size >= s.budget && guard < 1024; guard++ {
		h := -1
		for lvl, c := range s.compactors {
			if len(c) >= s.caps[lvl] {
				h = lvl
				break
			}
		}
		if h < 0 {
			// Every level under capacity yet the sum at budget cannot
			// happen (pigeonhole); bail out defensively.
			return
		}
		s.compactLevel(h)
	}
}

// compactLevel sorts level h, optionally retains one item when the
// occupancy is odd, and promotes one item of each adjacent pair — even or
// odd positions by a fresh coin flip — to level h+1 with doubled weight.
// The rank-error contribution of the operation is at most 2^h, with zero
// mean over the coin.
func (s *Sketch) compactLevel(h int) {
	items := s.compactors[h]
	if len(items) < 2 {
		return
	}
	slices.Sort(items)
	var retained float64
	hasRetained := false
	if len(items)%2 == 1 {
		// An odd straggler cannot be paired; it stays at level h with its
		// weight intact, introducing no error. Keeping the last (largest)
		// item is an arbitrary deterministic choice.
		retained = items[len(items)-1]
		hasRetained = true
		items = items[:len(items)-1]
	}
	offset := s.coin()
	if h+1 == len(s.compactors) {
		s.grow()
	}
	promoted := 0
	for i := offset; i < len(items); i += 2 {
		s.compactors[h+1] = append(s.compactors[h+1], items[i])
		promoted++
	}
	s.compactors[h] = s.compactors[h][:0]
	if hasRetained {
		s.compactors[h] = append(s.compactors[h], retained)
	}
	s.size -= len(items) - promoted
	for len(s.compactions) <= h {
		s.compactions = append(s.compactions, 0)
	}
	s.compactions[h]++
}

// ErrorBound returns the current a-posteriori rank-error bound: the
// smaller of the deterministic worst case (sum of 2^h over compactions)
// and the Hoeffding bound at confidence 1-delta over the compaction coin
// flips, plus the weight discretisation of the heaviest item. A reported
// quantile's rank is within the bound of exact with probability at least
// 1-delta (and always, when the deterministic term is the minimum).
func (s *Sketch) ErrorBound() float64 {
	if s.count == 0 {
		return 0
	}
	var det, variance float64
	for h, m := range s.compactions {
		w := math.Ldexp(1, h) // 2^h
		det += float64(m) * w
		variance += float64(m) * w * w
	}
	prob := math.Sqrt(2 * variance * math.Log(2/s.delta))
	bound := det
	if prob < bound {
		bound = prob
	}
	// Selecting a value from weighted items can miss the target rank by up
	// to the heaviest item's weight minus one, on top of the estimate error.
	topWeight := math.Ldexp(1, len(s.compactors)-1)
	return math.Ceil(bound) + topWeight - 1
}

// Quantile returns an approximation of the phi-quantile of everything
// consumed so far, phi in [0, 1].
func (s *Sketch) Quantile(phi float64) (float64, error) {
	vs, err := s.Quantiles([]float64{phi})
	if err != nil {
		return math.NaN(), err
	}
	return vs[0], nil
}

// weightedItem pairs a surviving value with its level weight for queries.
type weightedItem struct {
	v float64
	w int64
}

// Quantiles answers many quantiles in one pass over the surviving items;
// the result is parallel to phis. Queries are non-destructive.
func (s *Sketch) Quantiles(phis []float64) ([]float64, error) {
	if s.count == 0 {
		return nil, ErrEmpty
	}
	for _, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			return nil, fmt.Errorf("kll: quantile fraction %v outside [0,1]", phi)
		}
	}
	items := s.gather()
	out := make([]float64, len(phis))
	for i, phi := range phis {
		target := int64(math.Ceil(phi * float64(s.count)))
		if target < 1 {
			target = 1
		}
		if target > s.count {
			target = s.count
		}
		// Ranks 1 and count are tracked exactly, mirroring the MRL core:
		// compaction may have dropped the true extremes from the items.
		switch target {
		case 1:
			out[i] = s.min
			continue
		case s.count:
			out[i] = s.max
			continue
		}
		out[i] = selectRank(items, target)
	}
	return out, nil
}

// gather snapshots the surviving items sorted by value. Total item weight
// is exactly Count: compaction conserves weight.
func (s *Sketch) gather() []weightedItem {
	items := make([]weightedItem, 0, s.size)
	for h, c := range s.compactors {
		w := int64(1) << uint(h)
		for _, v := range c {
			items = append(items, weightedItem{v: v, w: w})
		}
	}
	sortItems(items)
	return items
}

// sortItems sorts by value (stable enough for our use: equal values are
// interchangeable).
func sortItems(items []weightedItem) {
	// Shell sort: no allocation, no reflection, fine at compactor sizes.
	for gap := len(items) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(items); i++ {
			it := items[i]
			j := i - gap
			for j >= 0 && items[j].v > it.v {
				items[j+gap] = items[j]
				j -= gap
			}
			items[j+gap] = it
		}
	}
}

// selectRank returns the first item whose cumulative weight reaches the
// target rank.
func selectRank(items []weightedItem, target int64) float64 {
	var cum int64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// Rank estimates the number of consumed elements <= v.
func (s *Sketch) Rank(v float64) (int64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	var rank int64
	for h, c := range s.compactors {
		w := int64(1) << uint(h)
		for _, item := range c {
			if item <= v {
				rank += w
			}
		}
	}
	return rank, nil
}

// Reset discards all consumed data, keeping k, delta and the current
// generator state (the coin schedule simply continues).
func (s *Sketch) Reset() {
	s.compactors = s.compactors[:0]
	s.caps = s.caps[:0]
	s.size = 0
	s.budget = 0
	s.count = 0
	s.min, s.max = 0, 0
	s.compactions = s.compactions[:0]
	s.absorbs = 0
	s.grow()
}

// Absorb folds other's data into s, leaving other untouched. The combined
// sketch keeps a valid bound: items merge level-by-level (weights agree by
// construction), compaction accounting adds, and the union is re-compacted
// lazily under s's capacity schedule.
func (s *Sketch) Absorb(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if s.count == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	for len(s.compactors) < len(other.compactors) {
		s.grow()
	}
	for h, c := range other.compactors {
		s.compactors[h] = append(s.compactors[h], c...)
		s.size += len(c)
	}
	for len(s.compactions) < len(other.compactions) {
		s.compactions = append(s.compactions, 0)
	}
	for h, m := range other.compactions {
		s.compactions[h] += m
	}
	s.count += other.count
	s.absorbs += other.absorbs + 1
	if s.size >= s.budget {
		s.compress()
	}
	return nil
}

// Clone deep-copies the sketch, coin schedule included.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{
		k: s.k, delta: s.delta, rng: s.rng,
		size: s.size, budget: s.budget,
		count: s.count, min: s.min, max: s.max,
		absorbs: s.absorbs,
	}
	c.compactors = make([][]float64, len(s.compactors))
	for h, lvl := range s.compactors {
		c.compactors[h] = append([]float64(nil), lvl...)
	}
	c.caps = append([]int(nil), s.caps...)
	c.compactions = append([]int64(nil), s.compactions...)
	return c
}
