package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mrl/internal/core"
	"mrl/internal/params"
)

// Sketch couples a random sample selector with the deterministic new
// algorithm per Section 5: elements selected by sequential sampling feed a
// core sketch provisioned for accuracy epsilon1 over S elements; the
// remaining epsilon2 is absorbed by Lemma 7 with probability >= 1-delta.
//
// When the plan decided not to sample (small datasets, Section 5.2) every
// element feeds the sketch and the guarantee is deterministic.
type Sketch struct {
	plan     params.SampledPlan
	sketch   *core.Sketch
	sel      *Sequential // nil when not sampling
	count    int64
	declared int64 // population size the selector was built for
}

// NewSketch instantiates the plan. populationN is the exact stream length
// that will be presented (required when the plan samples; it must be at
// least the plan's sample size). rng drives the selector and may be nil
// when the plan does not sample.
func NewSketch(plan params.SampledPlan, populationN int64, rng *rand.Rand) (*Sketch, error) {
	inner, err := plan.NewSketch()
	if err != nil {
		return nil, err
	}
	s := &Sketch{plan: plan, sketch: inner, declared: populationN}
	if plan.Sampled {
		sel, err := NewSequential(populationN, plan.SampleSize, rng)
		if err != nil {
			return nil, fmt.Errorf("sampling: building selector: %w", err)
		}
		s.sel = sel
	}
	return s, nil
}

// Plan returns the provisioning the sketch was built from.
func (s *Sketch) Plan() params.SampledPlan { return s.plan }

// Count returns the number of raw stream elements consumed.
func (s *Sketch) Count() int64 { return s.count }

// SampleCount returns the number of elements that reached the inner sketch.
func (s *Sketch) SampleCount() int64 { return s.sketch.Count() }

// MemoryElements returns the buffer footprint of the inner sketch.
func (s *Sketch) MemoryElements() int { return s.sketch.MemoryElements() }

// HeldElements returns the buffer elements the inner sketch has allocated.
func (s *Sketch) HeldElements() int { return s.sketch.HeldElements() }

// Add consumes one raw stream element. When sampling, presenting more
// elements than the declared population is an error: the selector's
// uniformity guarantee would silently break.
func (s *Sketch) Add(v float64) error {
	if math.IsNaN(v) {
		// Reject NaN whether or not the selector would take it: an invalid
		// element must not silently consume a population slot.
		return errors.New("sampling: NaN has no rank and cannot be added")
	}
	if s.sel != nil {
		if s.count >= s.declared {
			return fmt.Errorf("sampling: stream exceeded declared population %d", s.declared)
		}
		s.count++
		if !s.sel.Take() {
			return nil
		}
		return s.sketch.Add(v)
	}
	s.count++
	return s.sketch.Add(v)
}

// Quantiles answers quantile queries from the (possibly sampled) summary.
// The quantile fractions need no transposition: the phi-quantile of a
// uniform sample estimates the phi-quantile of the population.
func (s *Sketch) Quantiles(phis []float64) ([]float64, error) {
	return s.sketch.Quantiles(phis)
}

// Quantile is the single-quantile convenience form of Quantiles.
func (s *Sketch) Quantile(phi float64) (float64, error) {
	return s.sketch.Quantile(phi)
}

// Rank estimates the number of SAMPLED elements <= v; scale by
// Count()/SampleCount() for a population-level estimate.
func (s *Sketch) Rank(v float64) (int64, error) {
	return s.sketch.Rank(v)
}
