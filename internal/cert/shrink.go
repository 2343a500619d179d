package cert

import (
	"encoding/json"
	"fmt"

	"mrl/internal/kll"
	"mrl/internal/params"
	"mrl/quantile"
)

// maxShrinkSteps caps the shrink loop; every accepted step strictly
// reduces the scenario, so the cap only guards against pathological cost.
const maxShrinkSteps = 64

// fails reports whether the scenario still reproduces at least one
// violation. Scenarios that cannot run at all (infeasible after a shrink
// step, e.g. N below the sampling plan's S) do not count as failing: a
// reproducer must actually reproduce.
func (c *Certifier) fails(sc Scenario) bool {
	out, err := c.Check(sc)
	return err == nil && len(out.Violations) > 0
}

// Shrink minimises a failing scenario: it greedily applies the first
// reduction that still fails — halving N, dropping phis, collapsing
// shards/partitions, then materialising and shrinking the buffer geometry
// b*k itself — until no reduction reproduces. It returns the minimal
// scenario and the number of accepted steps; a scenario that does not fail
// is returned unchanged.
func (c *Certifier) Shrink(sc Scenario) (Scenario, int) {
	if !c.fails(sc) {
		return sc, 0
	}
	steps := 0
	for steps < maxShrinkSteps {
		improved := false
		for _, cand := range shrinkCandidates(sc) {
			if c.fails(cand) {
				sc = cand
				steps++
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return sc, steps
}

// shrinkCandidates proposes strictly smaller variants of sc, most
// aggressive first.
func shrinkCandidates(sc Scenario) []Scenario {
	var out []Scenario

	// Halve the stream.
	if sc.N >= 16 {
		cand := sc
		cand.N = sc.N / 2
		out = append(out, cand)
	}

	// Drop phis: halves first, then a single middle phi.
	if n := len(sc.Phis); n > 1 {
		first := sc
		first.Phis = append([]float64(nil), sc.Phis[:n/2]...)
		second := sc
		second.Phis = append([]float64(nil), sc.Phis[n/2:]...)
		single := sc
		single.Phis = []float64{sc.Phis[n/2]}
		out = append(out, first, second, single)
	}

	// Collapse parallelism.
	if sc.Shards > 1 {
		cand := sc
		cand.Shards = sc.Shards / 2
		out = append(out, cand)
	}
	if sc.Parts > 1 {
		cand := sc
		cand.Parts = sc.Parts / 2
		out = append(out, cand)
	}
	if sc.Nodes > 1 {
		cand := sc
		cand.Nodes = sc.Nodes / 2
		out = append(out, cand)
	}

	// KLL geometry: pin the accuracy parameter the Epsilon derivation would
	// choose (so the reproducer no longer depends on the derivation), then
	// halve k toward the sketch's floor. Mirrors the MRL b*k branch below;
	// stacks that size their own geometry are excluded the same way (they
	// refuse a pinned K).
	if sc.Backend == "kll" && !sc.sizesOwnGeometry() {
		if sc.K == 0 {
			if est, err := quantile.NewKLL(quantile.Config{Epsilon: sc.Epsilon}); err == nil {
				cand := sc
				cand.K = est.K()
				out = append(out, cand)
			}
		} else if sc.K/2 >= kll.MinK {
			cand := sc
			cand.K = sc.K / 2
			out = append(out, cand)
		}
		return out
	}
	if sc.Backend != "" && sc.Backend != "mrl" {
		return out // weighted has no shrinkable geometry knob
	}

	// Reduce b*k. For optimizer-sized scenarios first pin the geometry the
	// optimizer chose (so the reproducer no longer depends on the optimizer
	// at all), then shrink K and B. Pinning voids the a-priori epsilon
	// claim, so this branch only survives when the failure is in the
	// runtime bound — exactly when a geometry-level reproducer is useful.
	if sc.B == 0 && !sc.sizesOwnGeometry() {
		if pol, err := sc.corePolicy(); err == nil {
			if plan, err := params.Optimize(pol, sc.Epsilon, sc.N); err == nil {
				cand := sc
				cand.B, cand.K = plan.B, plan.K
				out = append(out, cand)
			}
		}
	}
	if sc.B > 0 && sc.K > 1 {
		cand := sc
		cand.K = sc.K / 2
		out = append(out, cand)
	}
	if sc.B > 2 {
		cand := sc
		cand.B = sc.B - 1
		out = append(out, cand)
	}
	return out
}

// certificateVersion is the JSON schema version of Certificate.
const certificateVersion = 1

// Certificate is a replayable record of one certified failure: the
// scenario as the sweep found it, the minimal reproducer the shrinker
// reduced it to, and the minimal scenario's scored outcome.
type Certificate struct {
	Version int `json:"version"`
	// Original is the scenario the sweep first caught failing.
	Original Scenario `json:"original"`
	// Minimal is the shrunk reproducer; feed it to Replay (or to
	// quantilecert -replay) to reproduce the violation bit-for-bit.
	Minimal Scenario `json:"minimal"`
	// ShrinkSteps is how many reductions the shrinker accepted.
	ShrinkSteps int `json:"shrinkSteps"`
	// Outcome is the minimal scenario's scored result, violations included.
	Outcome Outcome `json:"outcome"`
}

// MarshalIndent renders the certificate as indented JSON.
func (ct Certificate) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(ct, "", "  ")
}

// ParseCertificate decodes a certificate produced by MarshalIndent (or any
// json.Marshal of Certificate) and rejects unknown versions.
func ParseCertificate(data []byte) (Certificate, error) {
	var ct Certificate
	if err := json.Unmarshal(data, &ct); err != nil {
		return Certificate{}, fmt.Errorf("cert: parsing certificate: %w", err)
	}
	if ct.Version != certificateVersion {
		return Certificate{}, fmt.Errorf("cert: unsupported certificate version %d (want %d)", ct.Version, certificateVersion)
	}
	return ct, nil
}

// Replay re-runs a certificate's minimal scenario and returns the fresh
// outcome. Scenarios are fully self-contained and seeded, so a replayed
// violation reproduces exactly (under the same Options, in particular the
// same Corrupt hook, that produced it).
func (c *Certifier) Replay(ct Certificate) (Outcome, error) {
	return c.Check(ct.Minimal)
}

// certify wraps a failing scenario into a Certificate by shrinking it and
// re-scoring the minimal form.
func (c *Certifier) certify(sc Scenario) (Certificate, error) {
	minimal, steps := c.Shrink(sc)
	out, err := c.Check(minimal)
	if err != nil {
		return Certificate{}, fmt.Errorf("cert: re-scoring minimal scenario %s: %w", minimal.Name(), err)
	}
	return Certificate{
		Version:     certificateVersion,
		Original:    sc,
		Minimal:     minimal,
		ShrinkSteps: steps,
		Outcome:     out,
	}, nil
}
