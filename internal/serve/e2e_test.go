package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// permutation returns 1..n in a fixed scrambled order, the adversarially
// unordered stream the paper's guarantee is insensitive to.
func permutation(n int) []float64 {
	const stride = 7919 // prime, coprime with the test sizes used here
	data := make([]float64, n)
	for i := 0; i < n; i++ {
		data[i] = float64((i*stride)%n + 1)
	}
	return data
}

// checkWithinBound verifies every served value against the exact sorted
// oracle: it must be a genuine input element whose rank interval intersects
// [target-bound, target+bound] (+1 for the ceil convention, as everywhere
// in this repo's tests).
func checkWithinBound(t *testing.T, sorted []float64, phis, values []float64, bound float64, label string) {
	t.Helper()
	n := len(sorted)
	if len(values) != len(phis) {
		t.Fatalf("%s: %d values for %d phis", label, len(values), len(phis))
	}
	for i, phi := range phis {
		target := math.Ceil(phi * float64(n))
		if target < 1 {
			target = 1
		}
		v := values[i]
		lo := float64(sort.SearchFloat64s(sorted, v) + 1)
		hi := float64(sort.Search(n, func(j int) bool { return sorted[j] > v }))
		if hi < lo {
			t.Fatalf("%s: phi=%v: served %v is not an input element", label, phi, v)
		}
		if hi < target-bound-1 || lo > target+bound+1 {
			t.Errorf("%s: phi=%v: served %v rank=[%v,%v], target %v beyond bound %v",
				label, phi, v, lo, hi, target, bound)
		}
	}
}

func getQuantiles(t *testing.T, base, metric string, phis []float64, windowed bool) quantileResponse {
	t.Helper()
	parts := make([]string, len(phis))
	for i, phi := range phis {
		parts[i] = strconv.FormatFloat(phi, 'g', -1, 64)
	}
	url := fmt.Sprintf("%s/quantile?metric=%s&phi=%s&window=%v", base, metric, strings.Join(parts, ","), windowed)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out quantileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postBody(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustIngest(t *testing.T, base, body string) IngestResponse {
	t.Helper()
	resp := postBody(t, base+"/ingest", body)
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d", resp.StatusCode)
	}
	return out
}

func ingestBody(metric string, vs []float64) string {
	blob, _ := json.Marshal(ingestRequest{Metric: metric, Values: vs})
	return string(blob)
}

func mustNew(t *testing.T, reg *Registry, opt Options) *Server {
	t.Helper()
	srv, err := New(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestEndToEndConcurrentIngestWithinBound is the headline suite: a known
// stream is ingested through the HTTP API by concurrent clients (mixed
// single-object and NDJSON bodies) while probe clients hammer the read
// endpoints, and afterwards every served quantile — all-time and windowed —
// must verify within its advertised error bound against the exact oracle.
// Run it under -race (make race does).
func TestEndToEndConcurrentIngestWithinBound(t *testing.T) {
	const (
		n       = 120_000
		clients = 8
		chunk   = 1500
		eps     = 0.005
	)
	reg, err := NewRegistry(Config{Epsilon: eps, N: 400_000, Windows: 3, PerWindow: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, reg, Options{}).Handler())
	defer ts.Close()

	data := permutation(n)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	accepted := make([]int64, clients)
	per := n / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			part := data[c*per : (c+1)*per]
			for off := 0; off < len(part); off += chunk {
				end := off + chunk
				if end > len(part) {
					end = len(part)
				}
				var body string
				if c%2 == 0 {
					body = ingestBody("lat", part[off:end])
				} else {
					// NDJSON: the same chunk split across two objects.
					mid := (off + end) / 2
					body = ingestBody("lat", part[off:mid]) + "\n" + ingestBody("lat", part[mid:end]) + "\n"
				}
				resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var ir IngestResponse
				if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
					resp.Body.Close()
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: ingest status %d", c, resp.StatusCode)
					return
				}
				accepted[c] += ir.Accepted
			}
		}(c)
	}
	// Probe the read path while writers are in flight: responses just have
	// to be well-formed, not yet accurate.
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			for _, path := range []string{"/quantile?metric=lat&phi=0.5,0.99", "/metricsz", "/healthz"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(probeStop)
	probeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for _, a := range accepted {
		total += a
	}
	if total != n {
		t.Fatalf("clients report %d accepted values, sent %d", total, n)
	}

	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	phis := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

	all := getQuantiles(t, ts.URL, "lat", phis, false)
	if all.Count != n {
		t.Fatalf("all-time count %d, ingested %d", all.Count, n)
	}
	if all.ErrorBound <= 0 || all.ErrorBound > eps*400_000 {
		t.Fatalf("all-time bound %v outside (0, provisioned %v]", all.ErrorBound, eps*400_000)
	}
	if math.Abs(all.Epsilon-all.ErrorBound/float64(all.Count)) > 1e-12 {
		t.Fatalf("epsilon %v inconsistent with bound %v / count %d", all.Epsilon, all.ErrorBound, all.Count)
	}
	checkWithinBound(t, sorted, phis, all.Values, all.ErrorBound, "all-time")

	// No rotation happened, so the single live window covers the same
	// stream and must verify against the same oracle.
	win := getQuantiles(t, ts.URL, "lat", phis, true)
	if win.Count != n {
		t.Fatalf("windowed count %d, ingested %d", win.Count, n)
	}
	checkWithinBound(t, sorted, phis, win.Values, win.ErrorBound, "windowed")

	// /metricsz agrees with what was served.
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mz metricszResponse
	if err := json.NewDecoder(resp.Body).Decode(&mz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mz.Metrics) != 1 || mz.Metrics[0].Name != "lat" {
		t.Fatalf("metricsz = %+v", mz.Metrics)
	}
	st := mz.Metrics[0]
	if st.Count != n || st.IngestedValues != n {
		t.Fatalf("metricsz count=%d ingested=%d, want %d", st.Count, st.IngestedValues, n)
	}
	if st.Window == nil || st.Window.Count != n || st.Window.Live != 1 {
		t.Fatalf("window status %+v", st.Window)
	}
	if st.Fallbacks != 0 || st.Collapses == 0 || st.WeightSum < st.Collapses {
		t.Fatalf("collapse counters %d/%d/%d (fallbacks/collapses/weight sum) on a within-capacity run",
			st.Fallbacks, st.Collapses, st.WeightSum)
	}
}

// TestEndToEndWindowRotationOverHTTP drives tumbling windows through the
// HTTP rotation endpoint: after the ring wraps, windowed answers must cover
// exactly the live windows while all-time answers keep the whole history.
func TestEndToEndWindowRotationOverHTTP(t *testing.T) {
	const perBatch = 5000
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 200_000, Windows: 2, PerWindow: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, reg, Options{}).Handler())
	defer ts.Close()

	batch := func(base float64) []float64 {
		vs := make([]float64, perBatch)
		for i := range vs {
			vs[i] = base + float64((i*7919)%perBatch)
		}
		return vs
	}
	a, b, c := batch(0), batch(10_000), batch(20_000)
	mustIngest(t, ts.URL, ingestBody("rt", a))
	for _, vs := range [][]float64{b, c} {
		resp := postBody(t, ts.URL+"/rotate?metric=rt", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rotate status %d", resp.StatusCode)
		}
		resp.Body.Close()
		mustIngest(t, ts.URL, ingestBody("rt", vs))
	}

	phis := []float64{0, 0.25, 0.5, 0.75, 1}
	liveOracle := append(append([]float64(nil), b...), c...)
	sort.Float64s(liveOracle)
	win := getQuantiles(t, ts.URL, "rt", phis, true)
	if win.Count != int64(len(liveOracle)) {
		t.Fatalf("windowed count %d, live windows hold %d", win.Count, len(liveOracle))
	}
	if win.Values[0] < 10_000 {
		t.Fatalf("windowed min %v includes evicted window", win.Values[0])
	}
	checkWithinBound(t, liveOracle, phis, win.Values, win.ErrorBound, "windowed-after-eviction")

	allOracle := append(append(append([]float64(nil), a...), b...), c...)
	sort.Float64s(allOracle)
	all := getQuantiles(t, ts.URL, "rt", phis, false)
	if all.Count != int64(len(allOracle)) {
		t.Fatalf("all-time count %d, ingested %d", all.Count, len(allOracle))
	}
	if all.Values[0] >= 10_000 {
		t.Fatalf("all-time min %v lost the evicted window's data", all.Values[0])
	}
	checkWithinBound(t, allOracle, phis, all.Values, all.ErrorBound, "all-time-after-eviction")
}

// TestEndToEndCheckpointRestartResume exercises the full durability loop
// over a real listener: ingest, graceful shutdown (which seals the sketches
// into a final checkpoint), restore into a fresh registry, ingest more, and
// verify combined answers against the union oracle.
func TestEndToEndCheckpointRestartResume(t *testing.T) {
	const half = 30_000
	path := filepath.Join(t.TempDir(), "quantiled.ckpt")
	cfg := Config{Epsilon: 0.01, N: 100_000, Windows: 2, PerWindow: 50_000}
	data := permutation(2 * half)
	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}

	// First life: serve on a real listener, ingest the first half, shut
	// down gracefully.
	reg1, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := mustNew(t, reg1, Options{CheckpointPath: path})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv1.Serve(ln) }()
	base1 := "http://" + ln.Addr().String()
	mustIngest(t, base1, ingestBody("lat", data[:half]))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}

	// Second life: restore, ingest the second half, verify the union.
	reg2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, reg2, Options{}).Handler())
	defer ts.Close()
	mustIngest(t, ts.URL, ingestBody("lat", data[half:]))

	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	all := getQuantiles(t, ts.URL, "lat", phis, false)
	if all.Count != 2*half {
		t.Fatalf("combined count %d, want %d", all.Count, 2*half)
	}
	checkWithinBound(t, sorted, phis, all.Values, all.ErrorBound, "restored+live")

	var mz metricszResponse
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&mz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mz.Metrics) != 1 || mz.Metrics[0].RestoredCount != half {
		t.Fatalf("restored count %+v, want %d", mz.Metrics, half)
	}

	// Third life: checkpoint the merged state and restore it cold — the
	// answers must cover the full stream with no live ingestion at all.
	if err := reg2.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	reg3, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg3.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	res, err := reg3.Quantiles("lat", phis, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2*half {
		t.Fatalf("cold-restored count %d, want %d", res.Count, 2*half)
	}
	checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, "cold-restore")
}

// TestHTTPErrorPaths pins the status-code contract of every endpoint.
func TestHTTPErrorPaths(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000}) // windowing disabled
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Ensure("empty"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, reg, Options{}).Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		resp := postBody(t, ts.URL+path, body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz: %d", got)
	}
	for path, want := range map[string]int{
		"/quantile?metric=empty":                     http.StatusBadRequest, // missing phi
		"/quantile?metric=empty&phi=1.5":             http.StatusBadRequest,
		"/quantile?metric=empty&phi=abc":             http.StatusBadRequest,
		"/quantile?metric=empty&phi=0.5&window=what": http.StatusBadRequest,
		"/quantile?metric=nope&phi=0.5":              http.StatusNotFound,   // unknown metric
		"/quantile?metric=empty&phi=0.5":             http.StatusNotFound,   // no data yet
		"/quantile?metric=empty&phi=0.5&window=true": http.StatusBadRequest, // windowing disabled
		"/ingest": http.StatusMethodNotAllowed,
	} {
		if got := get(path); got != want {
			t.Errorf("GET %s: %d, want %d", path, got, want)
		}
	}
	for _, c := range []struct {
		body string
		want int
	}{
		{"", http.StatusBadRequest},          // empty body
		{"{not json", http.StatusBadRequest}, // malformed
		{`{"metric":"m","values":[1,NaN]}`, http.StatusBadRequest},
		{`{"metric":"","values":[1]}`, http.StatusBadRequest}, // invalid name
		{`{"metric":"ok","values":[]}`, http.StatusOK},        // empty batch is a no-op
		{`{"metric":"ok","values":[1,2,3]}`, http.StatusOK},
	} {
		if got := post("/ingest", c.body); got != c.want {
			t.Errorf("POST /ingest %q: %d, want %d", c.body, got, c.want)
		}
	}
	if got := post("/rotate?metric=nope", ""); got != http.StatusNotFound {
		t.Errorf("rotate unknown: %d", got)
	}
	if got := post("/rotate?metric=ok", ""); got != http.StatusBadRequest {
		t.Errorf("rotate with windowing disabled: %d", got)
	}
	if got := post("/rotate", ""); got != http.StatusOK {
		t.Errorf("rotate-all: %d", got)
	}
}
