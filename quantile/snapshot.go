package quantile

import (
	"errors"
	"fmt"
)

// EstimatorSnapshot is one frozen part of an estimator's state in
// transferable form: the backend tag, the element count the blob covers,
// and the backend's versioned binary serialisation (the same bytes
// MarshalBinary/UnmarshalBinary speak). Snapshots are how estimator state
// leaves a process — a cluster node ships one snapshot per metric to the
// coordinator, which restores and combines the nodes' parts without ever
// absorbing into the originals. Keeping the parts separate matters for
// MRL: the coordinator's §4.9 combined OUTPUT phase over the flat part list
// certifies a tighter Lemma 5 bound than merging first would.
type EstimatorSnapshot struct {
	// Backend names the summary implementation that produced Blob.
	Backend Backend
	// Count is the number of elements Blob covers; restore verifies it.
	Count int64
	// Blob is the estimator's binary serialisation.
	Blob []byte
}

// SnapshotEstimator freezes a standalone estimator — e.g. a served metric's
// summary — as a transferable snapshot. Sampled MRL sketches cannot be
// serialised and are refused.
func SnapshotEstimator(e Estimator) (EstimatorSnapshot, error) {
	var b Backend
	switch est := e.(type) {
	case *Sketch:
		if est.Sampled() {
			return EstimatorSnapshot{}, errors.New("quantile: sampled sketches cannot be snapshotted")
		}
		b = BackendMRL
	case *KLL:
		b = BackendKLL
	case *Weighted:
		b = BackendWeighted
	default:
		return EstimatorSnapshot{}, fmt.Errorf("quantile: cannot snapshot estimator %T", e)
	}
	blob, err := e.MarshalBinary()
	if err != nil {
		return EstimatorSnapshot{}, err
	}
	return EstimatorSnapshot{Backend: b, Count: e.Count(), Blob: blob}, nil
}

// RestoreEstimatorSnapshot rebuilds a live estimator from a snapshot and
// verifies the restored element count against the snapshot's declared one,
// so a blob paired with the wrong header fails loudly instead of serving a
// silently wrong certificate.
func RestoreEstimatorSnapshot(snap EstimatorSnapshot) (Estimator, error) {
	e, err := EmptyEstimator(snap.Backend)
	if err != nil {
		return nil, err
	}
	if err := e.UnmarshalBinary(snap.Blob); err != nil {
		return nil, err
	}
	if got := e.Count(); got != snap.Count {
		return nil, fmt.Errorf("quantile: snapshot declares %d elements but blob restores %d", snap.Count, got)
	}
	return e, nil
}

// CombineEstimatorSnapshots answers quantiles over the union of the given
// snapshots — the coordinator's scatter/gather merge. All parts must share
// one backend. For MRL the restored parts feed the §4.9 combined OUTPUT
// phase (Combine) directly, so the returned bound is the exact pooled Lemma
// 5 accounting over every part; for the other backends the parts are absorbed into one
// estimator and answered with its a-posteriori bound. It returns the
// estimates parallel to phis, the combined rank-error bound, and the total
// element count the answers cover; all-empty input returns ErrEmpty.
func CombineEstimatorSnapshots(snaps []EstimatorSnapshot, phis []float64) (values []float64, errorBound float64, count int64, err error) {
	live := make([]EstimatorSnapshot, 0, len(snaps))
	for _, s := range snaps {
		if s.Count == 0 && len(s.Blob) == 0 {
			continue
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		return nil, 0, 0, ErrEmpty
	}
	backend := live[0].Backend
	for _, s := range live[1:] {
		if s.Backend != backend {
			return nil, 0, 0, fmt.Errorf("quantile: cannot combine %q and %q snapshots", backend, s.Backend)
		}
	}
	ests := make([]Estimator, len(live))
	for i, s := range live {
		e, err := RestoreEstimatorSnapshot(s)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("quantile: snapshot part %d: %w", i, err)
		}
		ests[i] = e
	}
	if backend == BackendMRL || backend == "" {
		parts := make([]*Sketch, len(ests))
		for i, e := range ests {
			parts[i] = e.(*Sketch)
			count += e.Count()
		}
		values, errorBound, err = Combine(parts, phis)
		if err != nil {
			return nil, 0, 0, err
		}
		return values, errorBound, count, nil
	}
	// Uniform non-MRL: fold the restored parts (already private copies)
	// and answer with the combined a-posteriori bound.
	root := ests[0]
	for _, e := range ests[1:] {
		if err := root.Absorb(e); err != nil {
			return nil, 0, 0, err
		}
	}
	values, err = root.Quantiles(phis)
	if err != nil {
		return nil, 0, 0, err
	}
	bound, _ := root.ErrorBound()
	return values, bound, root.Count(), nil
}
