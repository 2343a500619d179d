package quantile

import (
	"errors"
	"fmt"
	"math"

	"mrl/internal/parallel"
)

// This file is the estimator surface of Concurrent: the methods that work
// whatever summary the shards run. MRL shards combine through the Section
// 4.9 combined OUTPUT over frozen snapshots; every other backend reaches
// its shards through the Estimator interface and combines by
// clone-and-absorb, which every backend's Absorb supports.

// Backend returns the summary implementation the shards run.
func (c *Concurrent) Backend() Backend { return c.backend }

// AddWeightedBatch consumes parallel value/weight slices on a
// BackendWeighted sketch, splitting large batches across shards like
// AddBatch. The batch is all-or-nothing: a NaN value or a non-positive or
// non-finite weight anywhere rejects the whole batch before any shard
// consumes an element. Safe for concurrent use.
func (c *Concurrent) AddWeightedBatch(vs, ws []float64) error {
	if c.backend != BackendWeighted {
		return fmt.Errorf("quantile: AddWeightedBatch needs the %q backend; this sketch runs %q", BackendWeighted, c.backend)
	}
	if len(vs) != len(ws) {
		return fmt.Errorf("quantile: %d values but %d weights", len(vs), len(ws))
	}
	n := len(vs)
	if n == 0 {
		return nil
	}
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("quantile: element %d: NaN has no rank and cannot be added", i)
		}
		if !(ws[i] > 0) || math.IsInf(ws[i], 0) {
			return fmt.Errorf("quantile: element %d: weight %v must be positive and finite", i, ws[i])
		}
	}
	chunks := (n + concurrentMinChunk - 1) / concurrentMinChunk
	if chunks > len(c.shards) {
		chunks = len(c.shards)
	}
	per := n / chunks
	extra := n % chunks
	pos := 0
	for i := 0; i < chunks; i++ {
		sz := per
		if i < extra {
			sz++
		}
		sh := c.acquire()
		err := sh.est.(*Weighted).AddWeightedBatch(vs[pos:pos+sz], ws[pos:pos+sz])
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		pos += sz
	}
	return nil
}

// combineEstimators folds clones of every non-empty shard — and any extra
// estimators — into one standalone estimator, leaving all inputs
// untouched. It returns nil when nothing was consumed. The caller may
// query or serialise the result freely. Extras must match the sketch's
// backend (Absorb enforces it).
func (c *Concurrent) combineEstimators(extra []Estimator) (Estimator, error) {
	var out Estimator
	absorb := func(e Estimator) error {
		clone, err := cloneEstimator(e)
		if err != nil {
			return err
		}
		if out == nil {
			out = clone
			return nil
		}
		return out.Absorb(clone)
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.est == nil {
			sh.mu.Unlock()
			return nil, errors.New("quantile: combineEstimators on an MRL sketch")
		}
		var err error
		if sh.est.Count() > 0 {
			err = absorb(sh.est)
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	for _, e := range extra {
		if e == nil || e.Count() == 0 {
			continue
		}
		if err := absorb(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mrlSnapshots freezes the live MRL shards plus the extras for one
// combined Section 4.9 OUTPUT pass. Nil extras are skipped. An extra that
// cannot take part — another estimator type, or a sampled sketch, which
// has no final buffers to combine — is skipped too, and reported in the
// returned error.
func (c *Concurrent) mrlSnapshots(extra []Estimator) ([]parallel.Snapshot, error) {
	snaps := c.snapshots()
	var err error
	for _, e := range extra {
		s, ok := e.(*Sketch)
		switch {
		case e == nil || (ok && s == nil):
			continue
		case !ok:
			err = fmt.Errorf("quantile: cannot combine %T with an MRL sketch", e)
		case s.smp != nil:
			err = errors.New("quantile: sampled sketches cannot be combined")
		default:
			snaps = append(snaps, parallel.Snap(s.det))
		}
	}
	return snaps, err
}

var errNothingToSeal = errors.New("quantile: nothing consumed; nothing to seal")

// SealEstimator folds every shard into one standalone estimator of the
// sketch's backend — e.g. to serialise the combined state with
// MarshalBinary — leaving the Concurrent sketch usable and unchanged. MRL
// shards fold into one sequential *Sketch via the absorb path.
func (c *Concurrent) SealEstimator() (Estimator, error) {
	if c.backend != BackendMRL {
		out, err := c.combineEstimators(nil)
		if err != nil {
			return nil, err
		}
		if out == nil {
			return nil, errNothingToSeal
		}
		return out, nil
	}
	var out *Sketch
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.sk.Count() == 0 {
			sh.mu.Unlock()
			continue
		}
		clone, err := cloneCore(sh.sk)
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &Sketch{cfg: Config{B: clone.B(), K: clone.K(), Policy: c.policy}, det: clone}
			continue
		}
		if err := out.det.Absorb(clone); err != nil {
			return nil, err
		}
	}
	if out == nil {
		return nil, errNothingToSeal
	}
	return out, nil
}

// CombineEstimators answers quantiles over the union of the live shards
// and the given estimators — e.g. checkpoint baselines — without
// modifying either side, whatever backend the sketch runs. It returns the
// estimates parallel to phis, the combined a-posteriori rank-error bound,
// and the total element count the answers cover. Nil and empty extras are
// skipped; extras must match the sketch's backend (for MRL, sampled
// sketches cannot take part: they have no final buffers to combine).
func (c *Concurrent) CombineEstimators(extra []Estimator, phis []float64) (values []float64, errorBound float64, count int64, err error) {
	if c.backend == BackendMRL {
		snaps, err := c.mrlSnapshots(extra)
		if err != nil {
			return nil, 0, 0, err
		}
		res, err := parallel.CombineSnapshots(snaps, phis)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Values, res.ErrorBound, res.Count, nil
	}
	combined, err := c.combineEstimators(extra)
	if err != nil {
		return nil, 0, 0, err
	}
	if combined == nil {
		return nil, 0, 0, ErrEmpty
	}
	values, err = combined.Quantiles(phis)
	if err != nil {
		return nil, 0, 0, err
	}
	bound, _ := combined.ErrorBound()
	return values, bound, combined.Count(), nil
}

// BoundEstimators evaluates the combined a-posteriori rank-error bound
// CombineEstimators would certify, without selecting any quantiles. Extras
// that cannot take part are skipped.
func (c *Concurrent) BoundEstimators(extra []Estimator) float64 {
	if c.backend == BackendMRL {
		snaps, _ := c.mrlSnapshots(extra) // the bound covers what can combine
		return parallel.CombinedBound(snaps)
	}
	combined, err := c.combineEstimators(extra)
	if err != nil || combined == nil {
		return 0
	}
	bound, _ := combined.ErrorBound()
	return bound
}

// EstimatorStats returns the pooled backend-neutral maintenance counters
// across all shards.
func (c *Concurrent) EstimatorStats() EstimatorStats {
	out := EstimatorStats{Backend: c.backend}
	for _, sh := range c.shards {
		sh.mu.Lock()
		var st EstimatorStats
		if sh.sk != nil {
			cs := sh.sk.Stats()
			st = EstimatorStats{
				Count:          sh.sk.Count(),
				MemoryElements: sh.sk.MemoryElements(),
				Compactions:    cs.Collapses,
				Absorbs:        cs.Absorbs,
			}
		} else {
			st = sh.est.EstimatorStats()
		}
		sh.mu.Unlock()
		out.Count += st.Count
		out.MemoryElements += st.MemoryElements
		out.Compactions += st.Compactions
		out.Absorbs += st.Absorbs
	}
	return out
}
