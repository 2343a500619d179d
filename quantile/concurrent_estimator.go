package quantile

import (
	"errors"
	"fmt"
	"math"
)

// This file is the estimator surface of Concurrent: the methods that work
// whatever summary the shards run. Every shard is an Estimator; sealing
// combines them by clone-and-absorb, which every backend's Absorb supports.

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
	return c.forChunks(n, func(e Estimator, lo, hi int) error {
		return e.(*Weighted).AddWeightedBatch(vs[lo:hi], ws[lo:hi])
	})
}

// seal folds clones of every non-empty shard into one standalone estimator,
// leaving the shards untouched. It returns nil when nothing was consumed.
// The caller may query or serialise the result freely.
func (c *Concurrent) seal() (Estimator, error) {
	var out Estimator
	for _, sh := range c.shards {
		var clone Estimator
		var err error
		sh.mu.Lock()
		if sh.est.Count() > 0 {
			clone, err = cloneEstimator(sh.est)
		}
		sh.mu.Unlock()
		switch {
		case err != nil:
			return nil, err
		case clone == nil:
		case out == nil:
			out = clone
		default:
			if err := out.Absorb(clone); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SealEstimator folds every shard into one standalone estimator of the
// sketch's backend — e.g. to serialise the combined state with
// MarshalBinary — leaving the Concurrent sketch usable and unchanged. MRL
// shards fold into one sequential *Sketch via the absorb path.
func (c *Concurrent) SealEstimator() (Estimator, error) {
	out, err := c.seal()
	if err == nil && out == nil {
		err = errors.New("quantile: nothing consumed; nothing to seal")
	}
	return out, err
}

// EstimatorStats returns the pooled backend-neutral maintenance counters
// across all shards.
func (c *Concurrent) EstimatorStats() EstimatorStats {
	out := EstimatorStats{Backend: c.backend}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := sh.est.EstimatorStats()
		sh.mu.Unlock()
		out.Count += st.Count
		out.MemoryElements += st.MemoryElements
		out.HeldElements += st.HeldElements
		out.Compactions += st.Compactions
		out.Absorbs += st.Absorbs
	}
	return out
}
