package quantile

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// snapshotPerm returns a deterministic shuffled permutation of 1..n.
func snapshotPerm(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// TestEstimatorSnapshotsRoundTrip: for every backend, a Concurrent sealed
// into one estimator and exported with SnapshotEstimator loses nothing in
// transfer — combining the snapshot covers every element the sketch holds
// within the combined bound, and for the backends that combine by absorbing
// answers exactly what the sealed estimator answers.
func TestEstimatorSnapshotsRoundTrip(t *testing.T) {
	phis := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for _, backend := range []Backend{BackendMRL, BackendKLL, BackendWeighted} {
		t.Run(string(backend), func(t *testing.T) {
			c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 10_000, Shards: 4, Backend: backend, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddBatch(snapshotPerm(5000, 1)); err != nil {
				t.Fatal(err)
			}
			sealed, err := c.SealEstimator()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := SnapshotEstimator(sealed)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Backend != backend || snap.Count != c.Count() {
				t.Fatalf("snapshot {%q, %d elements}, want {%q, %d}", snap.Backend, snap.Count, backend, c.Count())
			}
			gotVals, gotBound, gotCount, err := CombineEstimatorSnapshots([]EstimatorSnapshot{snap}, phis)
			if err != nil {
				t.Fatal(err)
			}
			wantVals, err := sealed.Quantiles(phis)
			if err != nil {
				t.Fatal(err)
			}
			wantBound, _ := sealed.ErrorBound()
			if gotCount != c.Count() {
				t.Fatalf("combined count = %d, want %d", gotCount, c.Count())
			}
			for i, phi := range phis {
				if d := math.Abs(gotVals[i] - math.Max(1, math.Ceil(phi*5000))); d > gotBound {
					t.Fatalf("phi %v: rank error %v exceeds combined bound %v", phi, d, gotBound)
				}
			}
			if backend == BackendMRL {
				// The §4.9 combined OUTPUT answers from the final buffers
				// and pooled collapse statistics, not through the sketch's
				// own query path, so only the oracle check applies.
				return
			}
			if gotBound != wantBound {
				t.Fatalf("combined bound = %v, want %v", gotBound, wantBound)
			}
			for i := range phis {
				if gotVals[i] != wantVals[i] {
					t.Fatalf("phi %v: combined value %v, want %v", phis[i], gotVals[i], wantVals[i])
				}
			}
			// Non-MRL shards answer through the same clone-and-absorb fold
			// SealEstimator runs, so the live read path agrees exactly.
			liveVals, liveBound, err := c.QuantilesWithBound(phis)
			if err != nil {
				t.Fatal(err)
			}
			if liveBound != wantBound || c.ErrorBound() != wantBound {
				t.Fatalf("live bounds %v/%v, sealed %v", liveBound, c.ErrorBound(), wantBound)
			}
			for i := range phis {
				if liveVals[i] != wantVals[i] {
					t.Fatalf("phi %v: live value %v, sealed %v", phis[i], liveVals[i], wantVals[i])
				}
			}
		})
	}
}

// TestCombineEstimatorSnapshotsAcrossSketches merges snapshots from two
// independent sketches — the cluster case, one summary per node — and
// checks the answer covers both populations within the pooled bound.
func TestCombineEstimatorSnapshotsAcrossSketches(t *testing.T) {
	const n, half = 8192, 4096
	perm := snapshotPerm(n, 2)
	var snaps []EstimatorSnapshot
	for node := 0; node < 2; node++ {
		sk, err := New(Config{Epsilon: 0.005, N: half})
		if err != nil {
			t.Fatal(err)
		}
		if err := sk.AddBatch(perm[node*half : (node+1)*half]); err != nil {
			t.Fatal(err)
		}
		part, err := SnapshotEstimator(sk)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, part)
	}
	phis := []float64{0.1, 0.5, 0.99}
	values, bound, count, err := CombineEstimatorSnapshots(snaps, phis)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if bound <= 0 || bound >= 0.01*float64(n) {
		t.Fatalf("bound %v outside (0, eps*N) for the eps/2 provisioning", bound)
	}
	for i, phi := range phis {
		rank := math.Ceil(phi * n)
		if rank < 1 {
			rank = 1
		}
		if got := math.Abs(values[i] - rank); got > bound {
			t.Fatalf("phi %v: |%v - %v| = %v exceeds bound %v", phi, values[i], rank, got, bound)
		}
	}
}

func TestCombineEstimatorSnapshotsErrors(t *testing.T) {
	if _, _, _, err := CombineEstimatorSnapshots(nil, []float64{0.5}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("all-empty combine error = %v, want ErrEmpty", err)
	}
	mk := func(backend Backend) EstimatorSnapshot {
		e, err := NewEstimator(backend, Config{Epsilon: 0.01, N: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddBatch([]float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		snap, err := SnapshotEstimator(e)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	mixed := []EstimatorSnapshot{mk(BackendMRL), mk(BackendKLL)}
	if _, _, _, err := CombineEstimatorSnapshots(mixed, []float64{0.5}); err == nil {
		t.Fatal("mixed-backend combine did not fail")
	}
	bad := mk(BackendMRL)
	bad.Count++
	if _, err := RestoreEstimatorSnapshot(bad); err == nil {
		t.Fatal("count-mismatched restore did not fail")
	}
	corrupt := mk(BackendKLL)
	corrupt.Blob = corrupt.Blob[:len(corrupt.Blob)/2]
	if _, err := RestoreEstimatorSnapshot(corrupt); err == nil {
		t.Fatal("truncated-blob restore did not fail")
	}
}

// TestSnapshotEstimatorStandalone covers the served-metric path: a
// standalone estimator of every backend snapshots and restores losslessly.
func TestSnapshotEstimatorStandalone(t *testing.T) {
	for _, backend := range []Backend{BackendMRL, BackendKLL, BackendWeighted} {
		t.Run(string(backend), func(t *testing.T) {
			e, err := NewEstimator(backend, Config{Epsilon: 0.01, N: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddBatch(snapshotPerm(500, 3)); err != nil {
				t.Fatal(err)
			}
			snap, err := SnapshotEstimator(e)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Backend != backend || snap.Count != e.Count() {
				t.Fatalf("snapshot header = {%q, %d}, want {%q, %d}", snap.Backend, snap.Count, backend, e.Count())
			}
			restored, err := RestoreEstimatorSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("restored median %v, want %v", got, want)
			}
		})
	}
}
