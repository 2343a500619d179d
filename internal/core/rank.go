package core

import (
	"math"
	"sort"
)

// Rank estimates the number of input elements less than or equal to v. The
// estimate carries the same Lemma 5 guarantee as Quantiles: it is within
// ErrorBound() ranks of the true count. The duality is direct — the rank
// estimate is the weighted count of summary slots at or below v, which is
// exactly the inverse of the OUTPUT position selection.
func (s *Sketch) Rank(v float64) (int64, error) {
	if s.count == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(v) {
		return 0, errNaNRank
	}
	var r int64
	s.qry.views = s.appendViews(s.qry.views[:0], &s.qry)
	for _, w := range s.qry.views {
		// Count slots with value <= v; each stands for Weight elements.
		idx := sort.Search(len(w.Data), func(i int) bool { return w.Data[i] > v })
		r += int64(idx) * w.Weight
	}
	// The merge has exactly Count slots (UnmarshalBinary enforces it), so
	// r never exceeds Count.
	return r, nil
}

// CDF estimates the fraction of input elements less than or equal to v:
// Rank(v) / Count.
func (s *Sketch) CDF(v float64) (float64, error) {
	r, err := s.Rank(v)
	if err != nil {
		return math.NaN(), err
	}
	return float64(r) / float64(s.count), nil
}

var errNaNRank = errorString("core: NaN has no rank")

// errorString is a tiny allocation-free error type.
type errorString string

func (e errorString) Error() string { return string(e) }
