package cert

import (
	"fmt"
	"math"

	"mrl/internal/core"
	"mrl/internal/parallel"
	"mrl/internal/params"
	"mrl/internal/stream"
	"mrl/internal/validate"
)

// planGeometry resolves the (b, k) a metamorphic check runs with: the
// scenario's explicit geometry if set, otherwise the optimizer's choice for
// (policy, epsilon, N) — the same provisioning production code would use.
func (sc Scenario) planGeometry() (b, k int, pol core.Policy, err error) {
	pol, err = sc.corePolicy()
	if err != nil {
		return 0, 0, 0, err
	}
	if sc.B > 0 {
		return sc.B, sc.K, pol, nil
	}
	plan, err := params.Optimize(pol, sc.Epsilon, sc.N)
	if err != nil {
		return 0, 0, 0, err
	}
	return plan.B, plan.K, pol, nil
}

// boundPermutationOrders is the order set ModeBoundPermutation compares;
// it deliberately spans fully clustered, anticorrelated and random arrivals.
var boundPermutationOrders = []string{"sorted", "reversed", "shuffled", "organ-pipe"}

// checkBoundPermutation certifies that the Lemma 5 accounting is a function
// of the arrival COUNT only: the collapse schedule is data-independent, so
// streaming any permutation of 1..N must leave identical Stats and an
// identical ErrorBound. A difference means the bound depends on data values
// — exactly the kind of drift that silently invalidates the certificate.
func (c *Certifier) checkBoundPermutation(sc Scenario) (Outcome, error) {
	b, k, pol, err := sc.planGeometry()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Scenario: sc, Count: sc.N, Bound: -1, EpsRanks: -1}
	var refBound float64
	var refStats core.Stats
	for i, order := range boundPermutationOrders {
		src, err := orderSource(order, sc.N, sc.Seed)
		if err != nil {
			return Outcome{}, err
		}
		sk, err := core.NewSketch(b, k, pol)
		if err != nil {
			return Outcome{}, err
		}
		if err := stream.Each(src, sk.Add); err != nil {
			return Outcome{}, err
		}
		bound, stats := sk.ErrorBound(), sk.Stats()
		if i == 0 {
			refBound, refStats = bound, stats
			out.Bound = bound
			continue
		}
		out.Checks += 2
		if bound != refBound {
			out.Violations = append(out.Violations, Violation{
				Kind:     "metamorphic-permutation",
				Observed: bound,
				Limit:    refBound,
				Detail:   fmt.Sprintf("ErrorBound after %q differs from %q", order, boundPermutationOrders[0]),
			})
		}
		if stats != refStats {
			out.Violations = append(out.Violations, Violation{
				Kind:     "metamorphic-permutation",
				Observed: float64(stats.Collapses),
				Limit:    float64(refStats.Collapses),
				Detail: fmt.Sprintf("collapse accounting after %q (%+v) differs from %q (%+v)",
					order, stats, boundPermutationOrders[0], refStats),
			})
		}
	}
	return out, nil
}

// buildAbsorbParts streams contiguous splits of data into fresh sketches.
func buildAbsorbParts(data []float64, parts, b, k int, pol core.Policy) ([]*core.Sketch, error) {
	out := make([]*core.Sketch, 0, parts)
	per := len(data) / parts
	extra := len(data) % parts
	pos := 0
	for i := 0; i < parts; i++ {
		sz := per
		if i < extra {
			sz++
		}
		sk, err := core.NewSketch(b, k, pol)
		if err != nil {
			return nil, err
		}
		if err := sk.AddBatch(data[pos : pos+sz]); err != nil {
			return nil, err
		}
		pos += sz
		out = append(out, sk)
	}
	return out, nil
}

// checkAssociativity certifies that how partition sketches are merged —
// a left-associated Absorb chain, a right-associated one, or the flat
// snapshot combine — never matters for the guarantee: every association
// must agree on the count and stay within its own reported bound of the
// exact oracle. (Bitwise-equal estimates are NOT required: different
// associations run different collapse trees.)
func (c *Certifier) checkAssociativity(sc Scenario) (Outcome, error) {
	if len(sc.Phis) == 0 {
		return Outcome{}, fmt.Errorf("cert: scenario %s has no phis", sc.Name())
	}
	b, k, pol, err := sc.planGeometry()
	if err != nil {
		return Outcome{}, err
	}
	src, err := sc.source()
	if err != nil {
		return Outcome{}, err
	}
	data := stream.Drain(src)
	parts := sc.partsOrDefault()
	if parts > len(data) {
		parts = len(data)
	}
	out := Outcome{Scenario: sc, Count: int64(len(data)), EpsRanks: -1, Bound: -1}

	type merged struct {
		label  string
		values []float64
		bound  float64
		count  int64
	}
	var runs []merged

	// Left association: (((p0+p1)+p2)+...).
	left, err := buildAbsorbParts(data, parts, b, k, pol)
	if err != nil {
		return Outcome{}, err
	}
	for i := 1; i < len(left); i++ {
		if err := left[0].Absorb(left[i]); err != nil {
			return Outcome{}, err
		}
	}
	lv, err := left[0].Quantiles(sc.Phis)
	if err != nil {
		return Outcome{}, err
	}
	runs = append(runs, merged{"absorb-left", lv, left[0].ErrorBound(), left[0].Count()})

	// Right association: (p0+(p1+(p2+...))).
	right, err := buildAbsorbParts(data, parts, b, k, pol)
	if err != nil {
		return Outcome{}, err
	}
	for i := len(right) - 2; i >= 0; i-- {
		if err := right[i].Absorb(right[i+1]); err != nil {
			return Outcome{}, err
		}
	}
	rv, err := right[0].Quantiles(sc.Phis)
	if err != nil {
		return Outcome{}, err
	}
	runs = append(runs, merged{"absorb-right", rv, right[0].ErrorBound(), right[0].Count()})

	// Flat snapshot combine over fresh parts (§4.9).
	flat, err := buildAbsorbParts(data, parts, b, k, pol)
	if err != nil {
		return Outcome{}, err
	}
	res, err := parallel.Combine(flat, sc.Phis)
	if err != nil {
		return Outcome{}, err
	}
	runs = append(runs, merged{"combine-flat", res.Values, res.ErrorBound, res.Count})

	out.Bound = runs[0].bound
	for _, m := range runs {
		out.Checks++
		if m.count != int64(len(data)) {
			out.Violations = append(out.Violations, Violation{
				Kind:     "metamorphic-associativity",
				Observed: float64(m.count),
				Limit:    float64(len(data)),
				Detail:   fmt.Sprintf("%s count disagrees with elements streamed", m.label),
			})
			continue
		}
		rep, err := validate.Evaluate(sc.Name()+"/"+m.label, data, sc.Phis, m.values)
		if err != nil {
			return Outcome{}, err
		}
		for _, q := range rep.Results {
			out.Checks++
			if q.RankError > out.WorstRankError {
				out.WorstRankError = q.RankError
			}
			if float64(q.RankError) > m.bound+floatEqTol {
				out.Violations = append(out.Violations, Violation{
					Kind:     "metamorphic-associativity",
					Phi:      q.Phi,
					Observed: float64(q.RankError),
					Limit:    m.bound,
					Detail:   fmt.Sprintf("%s exceeds its own reported bound", m.label),
				})
			}
		}
	}
	return out, nil
}

// affineScale and affineShift define the exact monotone map used by
// ModeAffine. Both are small integers so a*x + c is exactly representable
// for every rank value the permutation sources emit.
const (
	affineScale = 3
	affineShift = 7
)

// checkAffine certifies exact equivariance under the positive affine map
// x -> a*x + c: the algorithm is purely comparison-and-selection, so the
// transformed stream must produce bitwise the transformed estimates and an
// identical error bound. Any arithmetic smuggled into the summary (means,
// interpolation) breaks this immediately.
func (c *Certifier) checkAffine(sc Scenario) (Outcome, error) {
	if len(sc.Phis) == 0 {
		return Outcome{}, fmt.Errorf("cert: scenario %s has no phis", sc.Name())
	}
	b, k, pol, err := sc.planGeometry()
	if err != nil {
		return Outcome{}, err
	}
	src, err := sc.source()
	if err != nil {
		return Outcome{}, err
	}
	data := stream.Drain(src)

	base, err := core.NewSketch(b, k, pol)
	if err != nil {
		return Outcome{}, err
	}
	mapped, err := core.NewSketch(b, k, pol)
	if err != nil {
		return Outcome{}, err
	}
	for _, v := range data {
		if err := base.Add(v); err != nil {
			return Outcome{}, err
		}
		if err := mapped.Add(affineScale*v + affineShift); err != nil {
			return Outcome{}, err
		}
	}
	bv, err := base.Quantiles(sc.Phis)
	if err != nil {
		return Outcome{}, err
	}
	mv, err := mapped.Quantiles(sc.Phis)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Scenario: sc, Count: base.Count(), Bound: base.ErrorBound(), EpsRanks: -1}
	out.Checks++
	if mb := mapped.ErrorBound(); mb != out.Bound {
		out.Violations = append(out.Violations, Violation{
			Kind:     "metamorphic-affine",
			Observed: mb,
			Limit:    out.Bound,
			Detail:   "ErrorBound changed under an affine transform of the values",
		})
	}
	for i, phi := range sc.Phis {
		out.Checks++
		want := affineScale*bv[i] + affineShift
		if mv[i] != want {
			out.Violations = append(out.Violations, Violation{
				Kind:     "metamorphic-affine",
				Phi:      phi,
				Observed: mv[i],
				Limit:    want,
				Detail:   fmt.Sprintf("expected exactly %g*q+%g = %g, got %g (diff %g)", float64(affineScale), float64(affineShift), want, mv[i], math.Abs(mv[i]-want)),
			})
		}
	}
	return out, nil
}
