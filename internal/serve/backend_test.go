package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"mrl/quantile"
)

func TestRegistryBackendConfig(t *testing.T) {
	if _, err := NewRegistry(Config{Epsilon: 0.01, N: 1000, Backend: "bogus"}); !errors.Is(err, ErrInvalidBackend) {
		t.Fatalf("bogus Config.Backend err = %v, want ErrInvalidBackend", err)
	}
	for _, b := range []string{"", "mrl", "kll", "weighted"} {
		if _, err := NewRegistry(Config{Epsilon: 0.01, N: 1000, Backend: b}); err != nil {
			t.Fatalf("Config.Backend %q: %v", b, err)
		}
	}
}

func TestEnsureBackendAndMismatch(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.EnsureBackend("m", "kll"); err != nil {
		t.Fatal(err)
	}
	if err := reg.EnsureBackend("m", "kll"); err != nil {
		t.Fatalf("re-ensure with same backend: %v", err)
	}
	if err := reg.EnsureBackend("m", "weighted"); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("backend switch err = %v, want ErrBackendMismatch", err)
	}
	if err := reg.EnsureBackend("m2", "bogus"); !errors.Is(err, ErrInvalidBackend) {
		t.Fatalf("bogus backend err = %v, want ErrInvalidBackend", err)
	}
	if b := reg.Backend("m"); b != quantile.BackendKLL {
		t.Fatalf("Backend(m) = %q", b)
	}
	if b := reg.Backend("never"); b != quantile.BackendMRL {
		t.Fatalf("Backend(never) = %q, want registry default", b)
	}
	// Plain ingest into an explicitly non-default metric must keep working.
	if err := reg.Ingest("m", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Quantiles("m", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Values[0] != 2 {
		t.Fatalf("kll metric answered %+v", res)
	}
}

func TestIngestWeighted(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	// Weights against an MRL metric (or one that would be created MRL).
	if err := reg.Ingest("plain", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.IngestWeighted("plain", []float64{1}, []float64{2}); !errors.Is(err, ErrWeightsUnsupported) {
		t.Fatalf("weights into mrl metric err = %v, want ErrWeightsUnsupported", err)
	}
	if err := reg.IngestWeighted("fresh", []float64{1}, []float64{2}); !errors.Is(err, ErrWeightsUnsupported) {
		t.Fatalf("weights into default-backed fresh metric err = %v, want ErrWeightsUnsupported", err)
	}

	if err := reg.EnsureBackend("lat", "weighted"); err != nil {
		t.Fatal(err)
	}
	if err := reg.IngestWeighted("lat", []float64{1, 2}, []float64{1}); !errors.Is(err, ErrWeightMismatch) {
		t.Fatalf("unpaired weights err = %v, want ErrWeightMismatch", err)
	}
	if err := reg.IngestWeighted("lat", []float64{1}, []float64{-1}); !errors.Is(err, ErrWeightMismatch) {
		t.Fatalf("negative weight err = %v, want ErrWeightMismatch", err)
	}
	// (v=10, w=9) and (v=20, w=1): the median by weight is 10.
	if err := reg.IngestWeighted("lat", []float64{10, 20}, []float64{9, 1}); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Quantiles("lat", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 10 {
		t.Fatalf("weighted median %v, want 10", res.Values[0])
	}
	var found bool
	for _, st := range reg.Status() {
		if st.Name == "lat" {
			found = true
			if st.Backend != "weighted" {
				t.Fatalf("status backend %q", st.Backend)
			}
			if st.Count != 2 {
				t.Fatalf("status count %d", st.Count)
			}
		}
	}
	if !found {
		t.Fatal("lat missing from status")
	}
}

// TestBackendErrorBodies pins the HTTP status and the exact error body the
// ingest endpoint serves for backend misuse, so the wire contract cannot
// drift silently.
func TestBackendErrorBodies(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		wantCode   int
		wantBody   string
	}{
		{
			"unknown-backend",
			`{"metric":"m","backend":"bogus","values":[1]}`,
			http.StatusBadRequest,
			`{"error":"serve: invalid backend: quantile: unknown backend: \"bogus\" (want \"mrl\", \"kll\" or \"weighted\")"}` + "\n",
		},
		{
			"backend-mismatch",
			`{"metric":"km","backend":"kll","values":[1]}` + "\n" + `{"metric":"km","backend":"weighted","values":[2]}`,
			http.StatusBadRequest,
			`{"error":"serve: metric already exists with a different backend: \"km\" runs \"kll\", requested \"weighted\""}` + "\n",
		},
		{
			"weights-unsupported",
			`{"metric":"mm","values":[1],"weights":[2]}`,
			http.StatusBadRequest,
			`{"error":"serve: per-value weights need the \"weighted\" backend: metric \"mm\""}` + "\n",
		},
		{
			"weight-mismatch",
			`{"metric":"wm","backend":"weighted","values":[1,2],"weights":[1]}`,
			http.StatusBadRequest,
			`{"error":"serve: invalid weights: 2 values but 1 weights"}` + "\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBody(t, ts.URL+"/ingest", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.wantBody {
				t.Fatalf("body %q, want %q", got, tc.wantBody)
			}
		})
	}

	// The happy paths behind the same fields.
	resp := postBody(t, ts.URL+"/ingest", `{"metric":"wq","backend":"weighted","values":[10,20],"weights":[9,1]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted ingest status %d", resp.StatusCode)
	}
	resp = postBody(t, ts.URL+"/ingest", `{"metric":"kq","backend":"kll","values":[1,2,3]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kll ingest status %d", resp.StatusCode)
	}
	out := getQuantiles(t, ts.URL, "wq", []float64{0.5}, false)
	if out.Values[0] != 10 {
		t.Fatalf("weighted median over HTTP %v, want 10", out.Values[0])
	}
}

// TestCheckpointBackendRoundTrip checkpoints one metric per backend and
// restores them into a fresh registry: backends, counts and answers must
// survive, and the restored baselines must absorb into the next checkpoint.
func TestCheckpointBackendRoundTrip(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if err := reg.Ingest("m-mrl", data); err != nil {
		t.Fatal(err)
	}
	if err := reg.EnsureBackend("m-kll", "kll"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest("m-kll", data); err != nil {
		t.Fatal(err)
	}
	if err := reg.EnsureBackend("m-w", "weighted"); err != nil {
		t.Fatal(err)
	}
	ws := make([]float64, len(data))
	for i := range ws {
		ws[i] = float64(1 + i%3)
	}
	if err := reg.IngestWeighted("m-w", data, ws); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteCheckpoint(&buf, 42); err != nil {
		t.Fatal(err)
	}

	reg2, err := NewRegistry(Config{Epsilon: 0.01, N: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := reg2.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("restored walSeq %d", seq)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for name, wantBackend := range map[string]quantile.Backend{
		"m-mrl": quantile.BackendMRL, "m-kll": quantile.BackendKLL, "m-w": quantile.BackendWeighted,
	} {
		if b := reg2.Backend(name); b != wantBackend {
			t.Fatalf("%s restored as %q, want %q", name, b, wantBackend)
		}
		res, err := reg2.Quantiles(name, []float64{0.5}, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != int64(len(data)) {
			t.Fatalf("%s restored count %d", name, res.Count)
		}
		// The restored median must sit near the true one; the weighted
		// metric's weights are uncorrelated with the values, so its weighted
		// median stays near the unweighted one too.
		med := sorted[len(sorted)/2]
		spread := sorted[int(0.6*float64(len(sorted)))] - sorted[int(0.4*float64(len(sorted)))]
		if res.Values[0] < med-spread || res.Values[0] > med+spread {
			t.Fatalf("%s restored median %v, want near %v", name, res.Values[0], med)
		}
	}
	// The restored baselines must fold into the next checkpoint cycle: add
	// live data and checkpoint again.
	if err := reg2.Ingest("m-kll", data[:100]); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := reg2.WriteCheckpoint(&buf2, 43); err != nil {
		t.Fatal(err)
	}
	reg3, err := NewRegistry(Config{Epsilon: 0.01, N: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg3.Restore(bytes.NewReader(buf2.Bytes())); err != nil {
		t.Fatal(err)
	}
	res, err := reg3.Quantiles("m-kll", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(data)+100) {
		t.Fatalf("second-generation count %d, want %d", res.Count, len(data)+100)
	}
}

// TestBackendWALReplay restarts a WAL-backed server (no checkpoint) after
// weighted and backend-tagged ingest: replay must recreate each metric under
// its original backend with the acknowledged data, weights included.
func TestBackendWALReplay(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Registry, *Server) {
		reg, err := NewRegistry(Config{Epsilon: 0.01, N: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		return reg, mustNew(t, reg, Options{WALDir: dir})
	}
	_, srv := mk()
	ts := httptest.NewServer(srv.Handler())
	for _, body := range []string{
		`{"metric":"wgt","backend":"weighted","values":[10,20],"weights":[9,1]}`,
		`{"metric":"klm","backend":"kll","values":[1,2,3,4,5]}`,
		`{"metric":"def","values":[7,8,9]}`,
	} {
		resp := postBody(t, ts.URL+"/ingest", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", body, resp.StatusCode)
		}
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg2, srv2 := mk()
	defer srv2.Shutdown(context.Background())
	for name, want := range map[string]quantile.Backend{
		"wgt": quantile.BackendWeighted, "klm": quantile.BackendKLL, "def": quantile.BackendMRL,
	} {
		if b := reg2.Backend(name); b != want {
			t.Fatalf("%s replayed as %q, want %q", name, b, want)
		}
	}
	res, err := reg2.Quantiles("wgt", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.Values[0] != 10 {
		t.Fatalf("weighted replay answered %+v, want weighted median 10 over 2 values", res)
	}
	res, err = reg2.Quantiles("klm", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 || res.Values[0] != 3 {
		t.Fatalf("kll replay answered %+v", res)
	}
	res, err = reg2.Quantiles("def", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Values[0] != 8 {
		t.Fatalf("default replay answered %+v", res)
	}
}
