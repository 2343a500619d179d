// Package quantile is the public API of this library: single-pass
// epsilon-approximate quantile summaries with explicit, a-priori rank
// guarantees, after Manku, Rajagopalan and Lindsay, "Approximate Medians
// and other Quantiles in One Pass and with Limited Memory" (SIGMOD 1998).
//
// The zero-effort path is:
//
//	sk, err := quantile.New(quantile.Config{Epsilon: 0.01, N: 1_000_000})
//	for _, v := range values {
//		if err := sk.Add(v); err != nil { ... }
//	}
//	median, err := sk.Quantile(0.5)
//
// which provisions the paper's new algorithm so that every reported
// quantile is within rank distance Epsilon*N of exact, regardless of the
// arrival order or value distribution, in a single pass, using the least
// buffer memory of the policies the paper analyses (Table 1).
//
// Setting Delta > 0 allows the sketch to couple a uniform random sample
// with the deterministic algorithm (Section 5 of the paper): above a
// dataset-size threshold this makes memory independent of N, with the
// guarantee holding with probability at least 1-Delta.
//
// Any number of quantiles can be queried from one sketch at no extra
// memory cost, queries are non-destructive, and sketches built over
// partitions of a dataset can be combined with Combine (the paper's
// parallel formulation).
package quantile

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mrl/internal/core"
	"mrl/internal/params"
	"mrl/internal/sampling"
)

// ErrEmpty is the sentinel returned by queries against a sketch (sequential,
// concurrent, or windowed) that has consumed no input. Match it with
// errors.Is; wrappers across the module preserve it.
var ErrEmpty = core.ErrEmpty

// Policy selects the buffer-collapsing policy. The default, PolicyNew, is
// the paper's contribution and strictly cheapest in memory; the other two
// are the antecedents the paper analyses in the same framework, kept for
// comparison and benchmarking.
type Policy int

const (
	// PolicyNew is the paper's level-based collapsing policy (Section 4.5).
	PolicyNew Policy = iota
	// PolicyMunroPaterson is the equal-weight pairing policy of Munro and
	// Paterson (Section 4.3).
	PolicyMunroPaterson
	// PolicyARS is the two-level policy of Alsabti, Ranka and Singh
	// (Section 4.4).
	PolicyARS
)

func (p Policy) String() string { c, _ := p.core(); return c.String() }

func (p Policy) core() (core.Policy, error) {
	switch p {
	case PolicyNew:
		return core.PolicyNew, nil
	case PolicyMunroPaterson:
		return core.PolicyMunroPaterson, nil
	case PolicyARS:
		return core.PolicyARS, nil
	default:
		return 0, fmt.Errorf("quantile: unknown policy %d", int(p))
	}
}

// Config describes the accuracy contract a Sketch is provisioned for.
type Config struct {
	// Epsilon is the rank-error tolerance: every reported phi-quantile has
	// rank within Epsilon*N of ceil(phi*N). Required unless B and K are
	// set explicitly.
	Epsilon float64

	// N is the (maximum) number of elements the stream will carry. The
	// guarantee and memory sizing are computed for this capacity; feeding
	// more elements keeps the sketch running but the a-priori guarantee
	// then only holds as reported by ErrorBound. Required unless B and K
	// are set explicitly.
	N int64

	// Policy selects the collapsing policy; the default PolicyNew is the
	// right choice outside comparative experiments.
	Policy Policy

	// Delta, when positive, permits the Section 5 sampling coupling: the
	// sketch may process a uniform random sample instead of every element,
	// making memory independent of N; all guarantees then hold with
	// probability at least 1-Delta. Delta = 0 (default) keeps the fully
	// deterministic algorithm. Delta > 0 requires the default PolicyNew
	// (the sampling optimizer is built around it).
	Delta float64

	// NumQuantiles is the number of simultaneous quantiles the sampling
	// union bound provisions for (Section 5.3). It defaults to 1 and is
	// ignored by the deterministic algorithm, whose guarantee covers any
	// number of quantiles for free (Section 4.7).
	NumQuantiles int

	// B and K, when both positive, bypass the optimizer and size the
	// sketch directly as B buffers of K elements (expert use; Epsilon and
	// N become optional and are used only for reporting).
	B, K int

	// Seed drives the sampling selector when Delta > 0. Two sketches with
	// the same Config (including Seed) behave identically.
	Seed int64
}

// Sketch is a single-pass approximate quantile summary. It is not safe for
// concurrent use; for a shared thread-safe sketch use Concurrent, or build
// one Sketch per partition and use Combine.
type Sketch struct {
	cfg  Config
	det  *core.Sketch
	smp  *sampling.Sketch
	plan params.SampledPlan
}

// New provisions a sketch for the given contract.
func New(cfg Config) (*Sketch, error) {
	pol, err := cfg.Policy.core()
	if err != nil {
		return nil, err
	}
	if cfg.NumQuantiles < 0 {
		return nil, fmt.Errorf("quantile: NumQuantiles %d must be non-negative", cfg.NumQuantiles)
	}
	if cfg.Delta < 0 || cfg.Delta >= 1 {
		if cfg.Delta != 0 {
			return nil, fmt.Errorf("quantile: Delta %v outside [0,1)", cfg.Delta)
		}
	}

	// Expert path: explicit buffer geometry.
	if cfg.B != 0 || cfg.K != 0 {
		if cfg.B < 2 || cfg.K < 1 {
			return nil, fmt.Errorf("quantile: explicit geometry B=%d K=%d invalid", cfg.B, cfg.K)
		}
		if cfg.Delta > 0 {
			return nil, errors.New("quantile: explicit geometry cannot be combined with Delta (the sampling plan sizes its own buffers)")
		}
		det, err := core.NewSketch(cfg.B, cfg.K, pol)
		if err != nil {
			return nil, err
		}
		return &Sketch{cfg: cfg, det: det}, nil
	}

	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return nil, fmt.Errorf("quantile: Epsilon %v outside (0,1)", cfg.Epsilon)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("quantile: N %d must be positive", cfg.N)
	}

	// Sampling path: let the Section 5.2 rule decide. The sampling
	// optimizer is built around the new policy (the memory winner); a
	// non-default policy combined with Delta would silently not be
	// honoured, so reject the combination instead.
	if cfg.Delta > 0 {
		if cfg.Policy != PolicyNew {
			return nil, fmt.Errorf("quantile: Delta > 0 supports only PolicyNew, got %v", cfg.Policy)
		}
		p := cfg.NumQuantiles
		if p < 1 {
			p = 1
		}
		plan, err := params.OptimizeSampledDataset(cfg.Epsilon, cfg.Delta, cfg.N, p)
		if err != nil {
			return nil, err
		}
		if plan.Sampled {
			smp, err := sampling.NewSketch(plan, cfg.N, rand.New(rand.NewSource(cfg.Seed)))
			if err != nil {
				return nil, err
			}
			return &Sketch{cfg: cfg, smp: smp, plan: plan}, nil
		}
		det, err := plan.NewSketch()
		if err != nil {
			return nil, err
		}
		return &Sketch{cfg: cfg, det: det, plan: plan}, nil
	}

	plan, err := params.Optimize(pol, cfg.Epsilon, cfg.N)
	if err != nil {
		return nil, err
	}
	det, err := plan.NewSketch()
	if err != nil {
		return nil, err
	}
	return &Sketch{cfg: cfg, det: det, plan: params.SampledPlan{Plan: plan, Epsilon: cfg.Epsilon}}, nil
}

// Add consumes one stream element. NaN is rejected.
func (s *Sketch) Add(v float64) error {
	if s.smp != nil {
		return s.smp.Add(v)
	}
	return s.det.Add(v)
}

// AddSlice consumes vs in order, stopping at the first error.
func (s *Sketch) AddSlice(vs []float64) error {
	if s.det != nil {
		return s.det.AddSlice(vs)
	}
	for i, v := range vs {
		if err := s.smp.Add(v); err != nil {
			return fmt.Errorf("quantile: element %d: %w", i, err)
		}
	}
	return nil
}

// Quantile returns an approximation of the phi-quantile of everything
// consumed so far, phi in [0, 1]. Queries are non-destructive.
func (s *Sketch) Quantile(phi float64) (float64, error) {
	if s.smp != nil {
		return s.smp.Quantile(phi)
	}
	return s.det.Quantile(phi)
}

// Quantiles answers many quantiles in one pass over the summary; the result
// is parallel to phis.
func (s *Sketch) Quantiles(phis []float64) ([]float64, error) {
	if s.smp != nil {
		return s.smp.Quantiles(phis)
	}
	return s.det.Quantiles(phis)
}

// Median returns the 0.5-quantile.
func (s *Sketch) Median() (float64, error) { return s.Quantile(0.5) }

// Min returns the exact minimum consumed so far (tracked separately from
// the buffers, so it stays exact through collapses). For sampled sketches
// the minimum is over the sample.
func (s *Sketch) Min() (float64, error) {
	if s.smp != nil {
		return s.smp.Quantile(0)
	}
	return s.det.Min()
}

// Max returns the exact maximum consumed so far; see Min for the sampled
// caveat.
func (s *Sketch) Max() (float64, error) {
	if s.smp != nil {
		return s.smp.Quantile(1)
	}
	return s.det.Max()
}

// Rank estimates the number of consumed elements <= v, with the same rank
// guarantee as Quantile (deterministic sketches) or the same probabilistic
// guarantee scaled to the full stream (sampled sketches).
func (s *Sketch) Rank(v float64) (int64, error) {
	if s.smp != nil {
		// Rank within the sample scales to the population by N/S.
		r, err := s.smp.Rank(v)
		if err != nil {
			return 0, err
		}
		sc := s.smp.SampleCount()
		if sc == 0 {
			return 0, nil
		}
		return int64(math.Round(float64(r) * float64(s.smp.Count()) / float64(sc))), nil
	}
	return s.det.Rank(v)
}

// CDF estimates the fraction of consumed elements <= v.
func (s *Sketch) CDF(v float64) (float64, error) {
	r, err := s.Rank(v)
	if err != nil {
		return math.NaN(), err
	}
	return float64(r) / float64(s.Count()), nil
}

// MarshalBinary serialises a deterministic sketch; the restored sketch
// resumes exactly where this one stopped. Sampled sketches are not
// serialisable (the selector's future randomness is part of their state).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	if s.smp != nil {
		return nil, errors.New("quantile: sampled sketches cannot be serialised")
	}
	return s.det.MarshalBinary()
}

// UnmarshalBinary restores a sketch serialised by MarshalBinary. The
// receiver becomes a deterministic sketch with explicit geometry; the
// original Config is not preserved beyond (B, K, Policy).
func (s *Sketch) UnmarshalBinary(data []byte) error {
	det := &core.Sketch{}
	if err := det.UnmarshalBinary(data); err != nil {
		return err
	}
	s.det = det
	s.smp = nil
	s.cfg = Config{B: det.B(), K: det.K()}
	s.plan = params.SampledPlan{}
	return nil
}

// Count returns the number of stream elements consumed.
func (s *Sketch) Count() int64 {
	if s.smp != nil {
		return s.smp.Count()
	}
	return s.det.Count()
}

// MemoryElements returns the buffer footprint in elements (multiply by 8
// for bytes of float64 payload).
func (s *Sketch) MemoryElements() int {
	if s.smp != nil {
		return s.smp.MemoryElements()
	}
	return s.det.MemoryElements()
}

// Sampled reports whether the sketch runs on a random sample (probabilistic
// guarantee) rather than the full stream (deterministic guarantee).
func (s *Sketch) Sampled() bool { return s.smp != nil }

// ErrorBound returns the current worst-case rank error of any reported
// quantile, certified by Lemma 5 of the paper for the collapses that have
// actually happened. ok is false for sampled sketches, whose guarantee is
// probabilistic and not certifiable a posteriori.
func (s *Sketch) ErrorBound() (bound float64, ok bool) {
	if s.smp != nil {
		return math.NaN(), false
	}
	return s.det.ErrorBound(), true
}

// Merge folds other's data into s, leaving other untouched. Unlike Combine
// (a query-time operation) the merged sketch stays live: it keeps
// absorbing input and keeps a valid ErrorBound, at the cost of a few extra
// collapses charged to the bound. Both sketches must be deterministic with
// the same geometry and policy.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	if s.smp != nil || other.smp != nil {
		return errors.New("quantile: sampled sketches cannot be merged")
	}
	return s.det.Absorb(other.det)
}

// Reset discards all consumed data, keeping the provisioning (buffers are
// reused). Sampled sketches cannot be reset: the selector's schedule is
// bound to the declared stream; build a fresh sketch instead.
func (s *Sketch) Reset() error {
	if s.smp != nil {
		return errors.New("quantile: sampled sketches cannot be reset; create a new one")
	}
	s.det.Reset()
	return nil
}

// Describe returns a one-line summary of the sketch's provisioning.
func (s *Sketch) Describe() string {
	if s.smp != nil {
		p := s.plan
		return fmt.Sprintf("sampled{eps=%g delta=%g alpha=%.3f S=%d b=%d k=%d mem=%d}",
			p.Epsilon, p.Delta, p.Alpha, p.SampleSize, p.B, p.K, p.Memory())
	}
	return fmt.Sprintf("deterministic{policy=%v b=%d k=%d mem=%d}",
		s.det.Policy(), s.det.B(), s.det.K(), s.det.MemoryElements())
}

// Combine answers quantiles over the union of the inputs of several
// deterministic sketches (e.g. one per partition of a table), implementing
// the final phase of the paper's parallel formulation (Section 4.9): one
// OUTPUT over the sketches' live buffers, so they must not change during
// the call. It returns the estimates parallel to phis and the combined
// worst-case rank error; phi 0 and 1 answer the exact pooled extremes.
// Sampled sketches cannot be combined.
func Combine(sketches []*Sketch, phis []float64) (values []float64, errorBound float64, err error) {
	if len(sketches) == 0 {
		return nil, 0, errors.New("quantile: no sketches to combine")
	}
	cores := make([]*core.Sketch, len(sketches))
	for i, s := range sketches {
		if s.smp != nil {
			return nil, 0, errors.New("quantile: sampled sketches cannot be combined")
		}
		cores[i] = s.det
	}
	values, err = core.Quantiles(cores, phis)
	if err != nil {
		return nil, 0, err
	}
	return values, core.ErrorBound(cores), nil
}
