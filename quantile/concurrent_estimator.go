package quantile

import (
	"errors"
	"fmt"
	"math"
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

// combineEstimators folds clones of every non-empty shard into one
// standalone estimator, leaving the shards untouched. It returns nil when
// nothing was consumed. The caller may query or serialise the result freely.
func (c *Concurrent) combineEstimators() (Estimator, error) {
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
	return out, nil
}

var errNothingToSeal = errors.New("quantile: nothing consumed; nothing to seal")

// SealEstimator folds every shard into one standalone estimator of the
// sketch's backend — e.g. to serialise the combined state with
// MarshalBinary — leaving the Concurrent sketch usable and unchanged. MRL
// shards fold into one sequential *Sketch via the absorb path.
func (c *Concurrent) SealEstimator() (Estimator, error) {
	if c.backend != BackendMRL {
		out, err := c.combineEstimators()
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
				HeldElements:   sh.sk.HeldElements(),
				Compactions:    cs.Collapses,
				Absorbs:        cs.Absorbs,
			}
		} else {
			st = sh.est.EstimatorStats()
		}
		sh.mu.Unlock()
		out.Count += st.Count
		out.MemoryElements += st.MemoryElements
		out.HeldElements += st.HeldElements
		out.Compactions += st.Compactions
		out.Absorbs += st.Absorbs
	}
	return out
}
