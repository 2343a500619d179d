// Package tree models the collapse trees of Section 4.1 (Figures 2-4): for
// each policy it computes the analytic quantities of Figure 5 — leaves L,
// collapse count C, collapse weight sum W, heaviest root child wmax and
// height h — from which Lemma 5's error numerator (W-C-1)/2 + wmax follows.
//
// Simulate cross-validates the closed forms against the live collapse
// schedule of internal/core, which is how the test suite ties the paper's
// combinatorics to the implementation.
package tree

import (
	"fmt"

	"mrl/internal/core"
)

// Shape summarises a collapse tree (the symbols of Figure 5).
type Shape struct {
	Policy    core.Policy
	B         int
	Height    int
	Leaves    int64
	Collapses int64 // C
	WeightSum int64 // W
	WMax      int64 // weight of the heaviest child of the root
}

// ErrorNumerator returns the Lemma 5 worst-case rank error in units of
// buffer elements: multiply by nothing — with k-element buffers the rank
// error of OUTPUT is at most this value times 1 (weights already count
// elements per slot, and each leaf slot holds k elements, so the bound in
// dataset ranks is ErrorNumerator() as computed on weights).
func (s Shape) ErrorNumerator() float64 {
	v := float64(s.WeightSum-s.Collapses-1)/2 + float64(s.WMax)
	if v < 0 {
		return 0
	}
	return v
}

// MunroPaterson returns the Figure 2 complete binary tree for b >= 3
// buffers: 2^(b-1) leaves, a collapse at every internal non-root node, and
// two weight-2^(b-2) children of the root.
func MunroPaterson(b int) (Shape, error) {
	if b < 3 || b > 62 {
		return Shape{}, fmt.Errorf("tree: munro-paterson b %d outside [3,62]", b)
	}
	leaves := int64(1) << (b - 1)
	// Internal nodes at weight 2^j (j = 1..b-2) number 2^(b-1-j) each; the
	// root itself is the OUTPUT gate, not a collapse.
	var c, w int64
	for j := 1; j <= b-2; j++ {
		nodes := int64(1) << (b - 1 - j)
		c += nodes
		w += nodes * (int64(1) << j)
	}
	return Shape{
		Policy:    core.PolicyMunroPaterson,
		B:         b,
		Height:    b,
		Leaves:    leaves,
		Collapses: c,
		WeightSum: w,
		WMax:      int64(1) << (b - 2),
	}, nil
}

// ARS returns the Figure 3 two-level tree for even b >= 4: b/2 collapses of
// b/2 leaves each.
func ARS(b int) (Shape, error) {
	if b < 4 || b%2 != 0 {
		return Shape{}, fmt.Errorf("tree: ars b %d must be even and >= 4", b)
	}
	h := int64(b / 2)
	return Shape{
		Policy:    core.PolicyARS,
		B:         b,
		Height:    2,
		Leaves:    h * h,
		Collapses: h,
		WeightSum: h * h,
		WMax:      h,
	}, nil
}

// New returns the Figure 4 tree for b >= 2 buffers at height h >= 3, using
// the Section 4.5 closed forms:
//
//	L    = C(b+h-2, h-1)
//	C    = C(b+h-3, h-2) - 1
//	W    = (h-2)*C(b+h-2, h-1) - C(b+h-3, h-3)
//	wmax = C(b+h-3, h-2)
func New(b, h int) (Shape, error) {
	if b < 2 {
		return Shape{}, fmt.Errorf("tree: new-policy b %d must be >= 2", b)
	}
	if h < 3 {
		return Shape{}, fmt.Errorf("tree: new-policy height %d must be >= 3", h)
	}
	bb, hh := int64(b), int64(h)
	l := binomial(bb+hh-2, hh-1)
	if l < 0 {
		return Shape{}, fmt.Errorf("tree: new-policy (b=%d, h=%d) overflows", b, h)
	}
	c := binomial(bb+hh-3, hh-2) - 1
	w := (hh-2)*l - binomial(bb+hh-3, hh-3)
	wmax := binomial(bb+hh-3, hh-2)
	if c < 0 || w < 0 || wmax < 0 {
		return Shape{}, fmt.Errorf("tree: new-policy (b=%d, h=%d) overflows", b, h)
	}
	return Shape{
		Policy:    core.PolicyNew,
		B:         b,
		Height:    h,
		Leaves:    l,
		Collapses: c,
		WeightSum: w,
		WMax:      wmax,
	}, nil
}

// binomial returns C(n, r), or -1 on int64 overflow.
func binomial(n, r int64) int64 {
	if r < 0 || n < 0 || r > n {
		return 0
	}
	if r > n-r {
		r = n - r
	}
	var c int64 = 1
	for i := int64(1); i <= r; i++ {
		f := n - r + i
		if c > (int64(1)<<62)/f {
			return -1
		}
		c = c * f / i
	}
	return c
}

// Simulate replays the live collapse schedule of the given policy with
// k = 1 over the given number of leaves and returns the realised shape
// (Height is not observable from outside core and is reported as 0).
func Simulate(policy core.Policy, b int, leaves int64) (Shape, error) {
	if leaves < 1 {
		return Shape{}, fmt.Errorf("tree: leaves %d must be positive", leaves)
	}
	s, err := core.NewSketch(b, 1, policy)
	if err != nil {
		return Shape{}, err
	}
	for i := int64(0); i < leaves; i++ {
		if err := s.Add(float64(i)); err != nil {
			return Shape{}, err
		}
	}
	st := s.Stats()
	views, err := s.FinalBuffersRaw()
	if err != nil {
		return Shape{}, err
	}
	var wmax int64
	for _, v := range views {
		if v.Weight > wmax {
			wmax = v.Weight
		}
	}
	return Shape{
		Policy:    policy,
		B:         b,
		Leaves:    st.Leaves,
		Collapses: st.Collapses,
		WeightSum: st.WeightSum,
		WMax:      wmax,
	}, nil
}
