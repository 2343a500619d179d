package cert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"mrl/internal/core"
	"mrl/internal/parallel"
	"mrl/internal/params"
	"mrl/internal/sampling"
	"mrl/internal/serve"
	"mrl/quantile"
)

// runResult is what an estimator stack hands back for scoring.
type runResult struct {
	// values are the quantile estimates, parallel to the requested phis.
	values []float64
	// count is the element count the stack believes it consumed.
	count int64
	// bound is the runtime Lemma 5 rank bound served with the answer;
	// -1 when the stack does not certify one (sampling front-end).
	bound float64
	// epsLimit is the a-priori allowance in ranks (epsilon*N, plus the
	// documented parts-1 slack for the parallel combine); -1 when explicit
	// geometry voids the a-priori claim.
	epsLimit float64
}

// runEstimator dispatches to the scenario's estimator stack.
func runEstimator(sc Scenario, data, phis []float64) (runResult, error) {
	est := sc.Estimator
	if est == "" {
		est = EstimatorSketch
	}
	backend, err := quantile.ParseBackend(sc.Backend)
	if err != nil {
		return runResult{}, err
	}
	if sc.WeightProfile != "" {
		if backend != quantile.BackendWeighted {
			return runResult{}, fmt.Errorf("cert: weight profile %q needs the %q backend, got %q", sc.WeightProfile, quantile.BackendWeighted, sc.Backend)
		}
		if sc.Mode == ModeDuplicates {
			return runResult{}, fmt.Errorf("cert: weighted ingest does not combine with mode %q", sc.Mode)
		}
		ws, err := sc.buildWeights(len(data))
		if err != nil {
			return runResult{}, err
		}
		switch est {
		case EstimatorSketch:
			return runWeightedSketch(sc, data, ws, phis)
		case EstimatorConcurrent:
			return runWeightedConcurrent(sc, data, ws, phis)
		case EstimatorServe:
			return runServe(sc, data, phis)
		default:
			return runResult{}, fmt.Errorf("cert: estimator %q does not support weighted ingest", est)
		}
	}
	if backend != quantile.BackendMRL {
		if sc.Sampled {
			return runResult{}, fmt.Errorf("cert: the sampling front-end is MRL-specific; backend %q unsupported", sc.Backend)
		}
		switch est {
		case EstimatorSketch:
			return runBackendSketch(sc, backend, data, phis)
		case EstimatorConcurrent:
			return runBackendConcurrent(sc, backend, data, phis)
		case EstimatorServe:
			return runServe(sc, data, phis)
		case EstimatorCluster:
			return runCluster(sc, data, phis)
		default:
			return runResult{}, fmt.Errorf("cert: estimator %q does not support backend %q (the §4.9 snapshot combine is MRL-specific)", est, sc.Backend)
		}
	}
	switch est {
	case EstimatorSketch:
		if sc.Sampled {
			return runSampled(sc, data, phis)
		}
		return runSketch(sc, data, phis)
	case EstimatorConcurrent:
		return runConcurrent(sc, data, phis)
	case EstimatorParallel:
		return runParallel(sc, data, phis)
	case EstimatorServe:
		return runServe(sc, data, phis)
	case EstimatorCluster:
		return runCluster(sc, data, phis)
	default:
		return runResult{}, fmt.Errorf("cert: unknown estimator %q", sc.Estimator)
	}
}

// feedChunks exercises both ingestion faces deterministically: a short
// element-wise prefix through addOne, then batches through addBatch. Both
// paths are specified to produce identical sketch states; feeding through
// both keeps the certifier sensitive to either regressing.
func feedChunks(data []float64, addOne func(float64) error, addBatch func([]float64) error) error {
	prefix := 7
	if prefix > len(data) {
		prefix = len(data)
	}
	for i := 0; i < prefix; i++ {
		if err := addOne(data[i]); err != nil {
			return err
		}
	}
	const chunk = 237
	for off := prefix; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := addBatch(data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// feedWeightedChunks is feedChunks for (value, weight) pairs: a short
// element-wise prefix through addOne, then parallel-slice batches through
// addBatch, keeping the certifier sensitive to either weighted ingest face
// regressing.
func feedWeightedChunks(data, ws []float64, addOne func(v, w float64) error, addBatch func(vs, ws []float64) error) error {
	prefix := 7
	if prefix > len(data) {
		prefix = len(data)
	}
	for i := 0; i < prefix; i++ {
		if err := addOne(data[i], ws[i]); err != nil {
			return err
		}
	}
	const chunk = 237
	for off := prefix; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := addBatch(data[off:end], ws[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// runWeightedSketch drives the weighted summary's weighted ingest face
// directly. The bound is in weight units; the caller scores it against the
// weight-expanded oracle, whose ranks are exactly those units. No a-priori
// claim is made (epsLimit -1): the summary's Epsilon is by-weight and its
// runtime bound is the only guarantee served.
func runWeightedSketch(sc Scenario, data, ws, phis []float64) (runResult, error) {
	if _, err := sc.facadePolicy(); err != nil {
		return runResult{}, err
	}
	if sc.B > 0 || sc.K > 0 {
		return runResult{}, fmt.Errorf("cert: the weighted backend has no b/k geometry")
	}
	est, err := quantile.NewWeighted(quantile.Config{Epsilon: sc.Epsilon})
	if err != nil {
		return runResult{}, err
	}
	if err := feedWeightedChunks(data, ws, est.AddWeighted, est.AddWeightedBatch); err != nil {
		return runResult{}, err
	}
	values, err := est.Quantiles(phis)
	if err != nil {
		return runResult{}, err
	}
	bound, _ := est.ErrorBound()
	return runResult{values: values, count: est.Count(), bound: bound, epsLimit: -1}, nil
}

// runWeightedConcurrent shards the weighted summary behind
// quantile.Concurrent and feeds it through AddWeightedBatch (singles are
// one-element batches: Concurrent has no single weighted Add).
func runWeightedConcurrent(sc Scenario, data, ws, phis []float64) (runResult, error) {
	pol, err := sc.facadePolicy()
	if err != nil {
		return runResult{}, err
	}
	if sc.B > 0 || sc.K > 0 {
		return runResult{}, fmt.Errorf("cert: the weighted backend has no b/k geometry")
	}
	con, err := quantile.NewConcurrent(quantile.ConcurrentConfig{
		Policy: pol, Shards: sc.shardsOrDefault(), Backend: quantile.BackendWeighted,
		Epsilon: sc.Epsilon, Seed: sc.Seed,
	})
	if err != nil {
		return runResult{}, err
	}
	addOne := func(v, w float64) error { return con.AddWeightedBatch([]float64{v}, []float64{w}) }
	if err := feedWeightedChunks(data, ws, addOne, con.AddWeightedBatch); err != nil {
		return runResult{}, err
	}
	values, bound, err := con.QuantilesWithBound(phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{values: values, count: con.Count(), bound: bound, epsLimit: -1}, nil
}

// runSketch drives the public quantile.Sketch facade.
func runSketch(sc Scenario, data, phis []float64) (runResult, error) {
	pol, err := sc.facadePolicy()
	if err != nil {
		return runResult{}, err
	}
	cfg := quantile.Config{Policy: pol}
	epsLimit := sc.Epsilon * float64(len(data))
	if sc.B > 0 {
		cfg.B, cfg.K = sc.B, sc.K
		epsLimit = -1 // explicit geometry: only the runtime bound is claimed
	} else {
		cfg.Epsilon, cfg.N = sc.Epsilon, int64(len(data))
	}
	sk, err := quantile.New(cfg)
	if err != nil {
		return runResult{}, err
	}
	if err := feedChunks(data, sk.Add, sk.AddSlice); err != nil {
		return runResult{}, err
	}
	values, err := sk.Quantiles(phis)
	if err != nil {
		return runResult{}, err
	}
	bound, ok := sk.ErrorBound()
	if !ok {
		bound = -1
	}
	return runResult{values: values, count: sk.Count(), bound: bound, epsLimit: epsLimit}, nil
}

// runSampled drives the Section 5 sampling front-end: a sequential selector
// over a declared population feeding a deterministic sketch sized by the
// sampled optimizer. The epsilon claim is probabilistic (holds with
// probability >= 1-Delta), so sweeps keep Delta small enough that a single
// observed failure is overwhelming evidence of a bug.
func runSampled(sc Scenario, data, phis []float64) (runResult, error) {
	if sc.Policy != "new" {
		return runResult{}, fmt.Errorf("cert: sampling front-end supports only the new policy, got %q", sc.Policy)
	}
	if !(sc.Delta > 0 && sc.Delta < 1) {
		return runResult{}, fmt.Errorf("cert: sampled scenario needs Delta in (0,1), got %g", sc.Delta)
	}
	plan, err := params.OptimizeSampled(sc.Epsilon, sc.Delta, len(phis))
	if err != nil {
		return runResult{}, err
	}
	if plan.SampleSize > int64(len(data)) {
		return runResult{}, fmt.Errorf("cert: sample size %d exceeds stream length %d; scenario infeasible", plan.SampleSize, len(data))
	}
	sk, err := sampling.NewSketch(plan, int64(len(data)), sc.scenarioRand())
	if err != nil {
		return runResult{}, err
	}
	for _, v := range data {
		if err := sk.Add(v); err != nil {
			return runResult{}, err
		}
	}
	values, err := sk.Quantiles(phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{
		values:   values,
		count:    sk.Count(),
		bound:    -1, // the sampled guarantee is not certifiable a posteriori
		epsLimit: sc.Epsilon * float64(len(data)),
	}, nil
}

// runConcurrent drives the sharded quantile.Concurrent stack.
func runConcurrent(sc Scenario, data, phis []float64) (runResult, error) {
	pol, err := sc.facadePolicy()
	if err != nil {
		return runResult{}, err
	}
	cfg := quantile.ConcurrentConfig{Policy: pol, Shards: sc.shardsOrDefault()}
	epsLimit := sc.Epsilon * float64(len(data))
	if sc.B > 0 {
		cfg.B, cfg.K = sc.B, sc.K
		epsLimit = -1
	} else {
		cfg.Epsilon, cfg.N = sc.Epsilon, int64(len(data))
	}
	con, err := quantile.NewConcurrent(cfg)
	if err != nil {
		return runResult{}, err
	}
	if err := feedChunks(data, con.Add, con.AddBatch); err != nil {
		return runResult{}, err
	}
	values, bound, err := con.QuantilesWithBound(phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{values: values, count: con.Count(), bound: bound, epsLimit: epsLimit}, nil
}

// runBackendSketch drives a non-MRL backend through the quantile.Estimator
// facade directly. The backend's geometry does not derive from (Epsilon, N)
// the MRL way, so epsLimit is -1 and the scenario asserts the backend's own
// runtime bound: KLL's probabilistic a-posteriori bound (deterministic coin
// schedule under the scenario seed), or the weighted summary's max(g+Δ)/2,
// which is in rank units because every element arrives at unit weight.
func runBackendSketch(sc Scenario, backend quantile.Backend, data, phis []float64) (runResult, error) {
	if _, err := sc.facadePolicy(); err != nil {
		return runResult{}, err
	}
	if sc.B > 0 {
		return runResult{}, fmt.Errorf("cert: backend %q has no b-buffer geometry; only K applies", sc.Backend)
	}
	est, err := quantile.NewEstimator(backend, quantile.Config{
		Epsilon: sc.Epsilon, K: sc.K, Seed: sc.Seed, Delta: sc.Delta,
	})
	if err != nil {
		return runResult{}, err
	}
	addOne := est.Add
	if w, ok := est.(*quantile.Weighted); ok {
		// Exercise the weighted ingest face at unit weight: ranks then
		// coincide with weight units, so the oracle applies unchanged.
		addOne = func(v float64) error { return w.AddWeighted(v, 1) }
	}
	if err := feedChunks(data, addOne, est.AddBatch); err != nil {
		return runResult{}, err
	}
	values, err := est.Quantiles(phis)
	if err != nil {
		return runResult{}, err
	}
	bound, ok := est.ErrorBound()
	if !ok {
		bound = -1
	}
	return runResult{values: values, count: est.Count(), bound: bound, epsLimit: -1}, nil
}

// runBackendConcurrent shards a non-MRL backend behind quantile.Concurrent:
// each shard owns a private estimator (seeded per shard) and queries combine
// through clone-and-absorb, whose bound the scenario asserts.
func runBackendConcurrent(sc Scenario, backend quantile.Backend, data, phis []float64) (runResult, error) {
	pol, err := sc.facadePolicy()
	if err != nil {
		return runResult{}, err
	}
	if sc.B > 0 {
		return runResult{}, fmt.Errorf("cert: backend %q has no b-buffer geometry; only K applies", sc.Backend)
	}
	con, err := quantile.NewConcurrent(quantile.ConcurrentConfig{
		Policy: pol, Shards: sc.shardsOrDefault(), Backend: backend,
		Epsilon: sc.Epsilon, K: sc.K, Seed: sc.Seed,
	})
	if err != nil {
		return runResult{}, err
	}
	if err := feedChunks(data, con.Add, con.AddBatch); err != nil {
		return runResult{}, err
	}
	values, bound, err := con.QuantilesWithBound(phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{values: values, count: con.Count(), bound: bound, epsLimit: -1}, nil
}

// runParallel partitions the stream across independent core sketches and
// combines frozen snapshots (§4.9). Each partition is provisioned for
// epsilon over its own split, so the combined answer is within epsilon*N
// plus the parts-1 ranks the virtual-root combination may add.
func runParallel(sc Scenario, data, phis []float64) (runResult, error) {
	pol, err := sc.corePolicy()
	if err != nil {
		return runResult{}, err
	}
	parts := sc.partsOrDefault()
	if parts > len(data) {
		parts = len(data)
	}
	perN := (int64(len(data)) + int64(parts) - 1) / int64(parts)
	b, k := sc.B, sc.K
	epsLimit := sc.Epsilon*float64(len(data)) + float64(parts-1)
	if b <= 0 {
		plan, err := params.Optimize(pol, sc.Epsilon, perN)
		if err != nil {
			return runResult{}, err
		}
		b, k = plan.B, plan.K
	} else {
		epsLimit = -1
	}
	sketches := make([]*core.Sketch, 0, parts)
	per := len(data) / parts
	extra := len(data) % parts
	pos := 0
	for i := 0; i < parts; i++ {
		sz := per
		if i < extra {
			sz++
		}
		sk, err := core.NewSketch(b, k, pol)
		if err != nil {
			return runResult{}, err
		}
		if err := sk.AddBatch(data[pos : pos+sz]); err != nil {
			return runResult{}, err
		}
		pos += sz
		sketches = append(sketches, sk)
	}
	res, err := parallel.Combine(sketches, phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{values: res.Values, count: res.Count, bound: res.ErrorBound, epsLimit: epsLimit}, nil
}

// certMetric is the metric name serve scenarios ingest into.
const certMetric = "cert"

// serveIngestBatch is the request body shape of POST /ingest. Weights,
// when present, pairs with Values for weighted ingest.
type serveIngestBatch struct {
	Metric  string    `json:"metric"`
	Values  []float64 `json:"values"`
	Weights []float64 `json:"weights,omitempty"`
}

// serveQuantileResponse mirrors the GET /quantile response body.
type serveQuantileResponse struct {
	Values     []float64 `json:"values"`
	Count      int64     `json:"count"`
	ErrorBound float64   `json:"errorBound"`
	Epsilon    float64   `json:"epsilon"`
}

// memoryResponse is a minimal in-process http.ResponseWriter: the serve
// estimator exercises the full HTTP handler path (routing, body decode,
// query cache, JSON encode) without opening a listener, which keeps the
// certifier deterministic and dependency-free.
type memoryResponse struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func newMemoryResponse() *memoryResponse {
	return &memoryResponse{code: http.StatusOK, hdr: make(http.Header)}
}

func (m *memoryResponse) Header() http.Header         { return m.hdr }
func (m *memoryResponse) WriteHeader(code int)        { m.code = code }
func (m *memoryResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// do runs one request through the handler and fails on unexpected status.
func do(h http.Handler, method, target string, body []byte) (*memoryResponse, error) {
	var rdr *bytes.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, target, rdr)
	if err != nil {
		return nil, err
	}
	rec := newMemoryResponse()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("cert: %s %s: status %d: %s", method, target, rec.code, strings.TrimSpace(rec.body.String()))
	}
	return rec, nil
}

// runServe drives the embeddable HTTP serving subsystem through its real
// handler: the registry provisions one summary per metric, ingest
// arrives as JSON batches over POST /ingest, and the answer (with its live
// bound) is read back from GET /quantile.
func runServe(sc Scenario, data, phis []float64) (runResult, error) {
	if sc.Policy != "new" {
		return runResult{}, fmt.Errorf("cert: the serve registry provisions PolicyNew only, got %q", sc.Policy)
	}
	if sc.B > 0 {
		return runResult{}, fmt.Errorf("cert: the serve registry sizes its own geometry; explicit b/k unsupported")
	}
	backend, err := quantile.ParseBackend(sc.Backend)
	if err != nil {
		return runResult{}, err
	}
	reg, err := serve.NewRegistry(serve.Config{
		Epsilon: sc.Epsilon,
		N:       int64(len(data)),
		Backend: sc.Backend,
	})
	if err != nil {
		return runResult{}, err
	}
	srv, err := serve.New(reg, serve.Options{})
	if err != nil {
		return runResult{}, err
	}
	h := srv.Handler()

	// Weighted scenarios carry the parallel weights slice batch by batch;
	// the handler routes such bodies through the weighted ingest path.
	var ws []float64
	if sc.WeightProfile != "" {
		if ws, err = sc.buildWeights(len(data)); err != nil {
			return runResult{}, err
		}
	}

	const batch = 512
	for off := 0; off < len(data); off += batch {
		end := off + batch
		if end > len(data) {
			end = len(data)
		}
		req := serveIngestBatch{Metric: certMetric, Values: data[off:end]}
		if ws != nil {
			req.Weights = ws[off:end]
		}
		body, err := json.Marshal(req)
		if err != nil {
			return runResult{}, err
		}
		if _, err := do(h, http.MethodPost, "/ingest", body); err != nil {
			return runResult{}, err
		}
	}

	parts := make([]string, len(phis))
	for i, phi := range phis {
		parts[i] = strconv.FormatFloat(phi, 'g', -1, 64)
	}
	target := "/quantile?metric=" + certMetric + "&phi=" + strings.Join(parts, ",")
	rec, err := do(h, http.MethodGet, target, nil)
	if err != nil {
		return runResult{}, err
	}
	var resp serveQuantileResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return runResult{}, fmt.Errorf("cert: decoding quantile response: %w", err)
	}
	if len(resp.Values) != len(phis) {
		return runResult{}, fmt.Errorf("cert: serve returned %d values for %d phis", len(resp.Values), len(phis))
	}
	epsLimit := sc.Epsilon * float64(len(data))
	if backend != quantile.BackendMRL {
		epsLimit = -1 // non-MRL metrics claim only their runtime bound
	}
	return runResult{
		values:   resp.Values,
		count:    resp.Count,
		bound:    resp.ErrorBound,
		epsLimit: epsLimit,
	}, nil
}
