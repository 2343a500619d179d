package cluster

import (
	"context"
	"testing"

	"mrl/internal/serve"
	"mrl/internal/window"
	"mrl/quantile"
)

// TestCombinedAnswersExactExtremes: every §4.9 combine answers target ranks
// 1 and N with the pooled exact minimum and maximum, as a single sketch
// does, although collapses drop the extremes from the buffers. Checked
// through window.Ring, quantile.Combine, quantile.Concurrent and
// Coordinator.Query, each over a permutation of 1..n split into parts.
func TestCombinedAnswersExactExtremes(t *testing.T) {
	const n = 60_000
	const eps = 0.01
	vs := clusterPerm(n, 7)
	third := func(i int) []float64 { return vs[i*n/3 : (i+1)*n/3] }
	// Ranks ceil(phi*n): 1, 1, n, n.
	phis := []float64{0, 1e-9, 1 - 1e-9, 1}
	want := []float64{1, 1, n, n}
	check := func(path string, got []float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: phi %v answered %v, want the exact extreme %v", path, phis[i], got[i], want[i])
			}
		}
	}

	ring, err := window.NewRing(5, eps, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if i > 0 {
			if err := ring.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ring.AddBatch(third(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := ring.Quantiles(phis)
	check("window.Ring", got, err)

	parts := make([]*quantile.Sketch, 3)
	for i := range parts {
		if parts[i], err = quantile.New(quantile.Config{Epsilon: eps, N: n}); err != nil {
			t.Fatal(err)
		}
		if err := parts[i].AddBatch(third(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err = quantile.Combine(parts, phis)
	check("quantile.Combine", got, err)

	c, err := quantile.NewConcurrent(quantile.ConcurrentConfig{Epsilon: eps, N: n, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(vs); err != nil {
		t.Fatal(err)
	}
	got, err = c.Quantiles(phis)
	check("quantile.Concurrent", got, err)

	// A part on every node: the coordinator merges three summaries.
	nodes, coord, _ := newMemCluster(t, 3, serve.Config{Epsilon: eps, N: n}, eps)
	for i, nd := range nodes {
		if err := nd.reg.Ingest("lat", third(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := coord.Query(context.Background(), "lat", phis)
	check("Coordinator.Query", res.Values, err)
}
