package cert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

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

// runEstimator checks once that the scenario's stack, backend, weight
// profile, sampling, policy and geometry fit together, then dispatches to
// the stack's run. ws holds the weight profile's weights, nil without a
// profile.
func runEstimator(sc Scenario, data, ws, phis []float64) (runResult, error) {
	est := sc.Estimator
	if est == "" {
		est = EstimatorSketch
	}
	backend, err := quantile.ParseBackend(sc.Backend)
	if err != nil {
		return runResult{}, err
	}
	stack := "the " + est + " stack"
	if sc.Sampled {
		stack = "the sampling front-end"
	}
	switch {
	case sc.WeightProfile != "" && backend != quantile.BackendWeighted:
		return runResult{}, fmt.Errorf("cert: weight profile %q needs the %q backend, got %q", sc.WeightProfile, quantile.BackendWeighted, sc.Backend)
	case sc.WeightProfile != "" && sc.Mode == ModeDuplicates:
		return runResult{}, fmt.Errorf("cert: weighted ingest does not combine with mode %q", sc.Mode)
	case sc.WeightProfile != "" && est != EstimatorSketch && est != EstimatorConcurrent && est != EstimatorServe:
		return runResult{}, fmt.Errorf("cert: estimator %q does not support weighted ingest", est)
	case sc.Sampled && est != EstimatorSketch:
		return runResult{}, fmt.Errorf("cert: only the %q stack has a sampling front-end, got estimator %q", EstimatorSketch, est)
	case sc.Sampled && backend != quantile.BackendMRL:
		// This also refuses a sampled weight profile, which needs the
		// weighted backend.
		return runResult{}, fmt.Errorf("cert: the sampling front-end is MRL-specific; backend %q unsupported", sc.Backend)
	case est == EstimatorParallel && backend != quantile.BackendMRL:
		return runResult{}, fmt.Errorf("cert: estimator %q does not support backend %q (the §4.9 snapshot combine is MRL-specific)", est, sc.Backend)
	case backend == quantile.BackendKLL && sc.Delta != 0 && est != EstimatorSketch:
		return runResult{}, fmt.Errorf("cert: only the direct KLL run takes a Delta; %s runs KLL at its default confidence", stack)
	case sc.sizesOwnGeometry() && sc.Policy != "new":
		return runResult{}, fmt.Errorf("cert: %s provisions the new policy only, got %q", stack, sc.Policy)
	case sc.sizesOwnGeometry() && (sc.B > 0 || sc.K > 0):
		return runResult{}, fmt.Errorf("cert: %s sizes its own geometry; explicit b/k unsupported", stack)
	}
	switch est {
	case EstimatorSketch:
		if sc.Sampled {
			return runSampled(sc, data, phis)
		}
		return runDirect(sc, backend, data, ws, phis)
	case EstimatorConcurrent:
		return runSharded(sc, backend, data, ws, phis)
	case EstimatorParallel:
		return runParallel(sc, data, phis)
	case EstimatorServe:
		return runServe(sc, backend, data, ws, phis)
	case EstimatorCluster:
		return runCluster(sc, backend, data, phis)
	default:
		return runResult{}, fmt.Errorf("cert: unknown estimator %q", sc.Estimator)
	}
}

// estimatorConfig provisions the direct and sharded runs alike and returns
// the a-priori allowance in ranks they claim over an n-value stream. MRL
// sized from (Epsilon, N) claims epsilon*N; explicit B x K voids that claim
// (-1). KLL and the weighted summary do not derive their geometry from
// (Epsilon, N) the MRL way: they run from (Epsilon, K, Seed, Delta) and
// claim only their runtime bound — KLL's probabilistic bound under the
// scenario seed's coins, the weighted summary's max(g+Δ)/2 in weight units.
// KLL ignores N and the weighted summary ignores K and Seed, so it refuses
// a K it would silently drop. MRL never gets Delta, with which quantile.New
// would switch to its own sampling plan.
func (sc Scenario) estimatorConfig(backend quantile.Backend, n int) (quantile.Config, float64, error) {
	pol, err := sc.facadePolicy()
	if err != nil {
		return quantile.Config{}, 0, err
	}
	cfg := quantile.Config{Policy: pol}
	switch {
	case backend == quantile.BackendMRL && (sc.B > 0 || sc.K > 0):
		cfg.B, cfg.K = sc.B, sc.K // quantile.New refuses one without the other
		return cfg, -1, nil
	case backend == quantile.BackendMRL:
		cfg.Epsilon, cfg.N = sc.Epsilon, int64(n)
		return cfg, sc.Epsilon * float64(n), nil
	case backend == quantile.BackendWeighted && (sc.B > 0 || sc.K > 0):
		return quantile.Config{}, 0, fmt.Errorf("cert: the weighted backend has no b/k geometry")
	case sc.B > 0:
		return quantile.Config{}, 0, fmt.Errorf("cert: backend %q has no b-buffer geometry; only K applies", sc.Backend)
	}
	cfg.Epsilon, cfg.K, cfg.Seed, cfg.Delta = sc.Epsilon, sc.K, sc.Seed, sc.Delta
	return cfg, -1, nil
}

// feed streams data through both ingest faces of a stack, deterministically:
// the first 7 values one at a time through one, the rest in batches of 237
// through batch. Both faces are specified to leave identical states;
// feeding through both keeps the certifier sensitive to either regressing.
// ws holds the values' weights, nil when every value weighs 1; a stack
// that does not ingest weights ignores them.
func feed(data, ws []float64, one func(v, w float64) error, batch func(vs, ws []float64) error) error {
	if ws == nil {
		ws = make([]float64, len(data))
		for i := range ws {
			ws[i] = 1
		}
	}
	prefix := min(7, len(data))
	for i := range prefix {
		if err := one(data[i], ws[i]); err != nil {
			return err
		}
	}
	const chunk = 237
	for off := prefix; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if err := batch(data[off:end], ws[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// runDirect drives one estimator built by quantile.NewEstimator. The
// weighted summary takes its values through its weighted ingest face.
func runDirect(sc Scenario, backend quantile.Backend, data, ws, phis []float64) (runResult, error) {
	cfg, epsLimit, err := sc.estimatorConfig(backend, len(data))
	if err != nil {
		return runResult{}, err
	}
	est, err := quantile.NewEstimator(backend, cfg)
	if err != nil {
		return runResult{}, err
	}
	one := func(v, _ float64) error { return est.Add(v) }
	batch := func(vs, _ []float64) error { return est.AddBatch(vs) }
	if w, ok := est.(*quantile.Weighted); ok {
		one, batch = w.AddWeighted, w.AddWeightedBatch
	}
	if err := feed(data, ws, one, batch); err != nil {
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
	return runResult{values: values, count: est.Count(), bound: bound, epsLimit: epsLimit}, nil
}

// runSharded drives one quantile.Concurrent whose shards run the backend:
// MRL answers through the §4.9 combine of the shards, other backends
// through clone-and-absorb, and the scenario asserts the bound served with
// the answer. The weighted summary takes its values through
// AddWeightedBatch; Concurrent has no single weighted add, so its singles
// are one-element batches.
func runSharded(sc Scenario, backend quantile.Backend, data, ws, phis []float64) (runResult, error) {
	cfg, epsLimit, err := sc.estimatorConfig(backend, len(data))
	if err != nil {
		return runResult{}, err
	}
	con, err := quantile.NewConcurrent(quantile.ConcurrentConfig{
		Epsilon: cfg.Epsilon, N: cfg.N, Policy: cfg.Policy, B: cfg.B, K: cfg.K, Seed: cfg.Seed,
		Shards: sc.shardsOrDefault(), Backend: backend,
	})
	if err != nil {
		return runResult{}, err
	}
	one := func(v, _ float64) error { return con.Add(v) }
	batch := func(vs, _ []float64) error { return con.AddBatch(vs) }
	if backend == quantile.BackendWeighted {
		one = func(v, w float64) error { return con.AddWeightedBatch([]float64{v}, []float64{w}) }
		batch = con.AddWeightedBatch
	}
	if err := feed(data, ws, one, batch); err != nil {
		return runResult{}, err
	}
	values, bound, err := con.QuantilesWithBound(phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{values: values, count: con.Count(), bound: bound, epsLimit: epsLimit}, nil
}

// runSampled drives the Section 5 sampling front-end: a sequential selector
// over a declared population feeding a deterministic sketch sized by the
// sampled optimizer. The epsilon claim is probabilistic (holds with
// probability >= 1-Delta), so sweeps keep Delta small enough that a single
// observed failure is overwhelming evidence of a bug.
func runSampled(sc Scenario, data, phis []float64) (runResult, error) {
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

// runParallel partitions the stream across independent core sketches and
// combines them (§4.9). Each partition is provisioned for epsilon over its
// own split, so the combined answer is within epsilon*N plus the parts-1
// ranks the virtual-root combination may add.
func runParallel(sc Scenario, data, phis []float64) (runResult, error) {
	pol, err := sc.corePolicy()
	if err != nil {
		return runResult{}, err
	}
	parts := min(sc.partsOrDefault(), len(data))
	b, k, epsLimit := sc.B, sc.K, -1.0
	if b <= 0 && k <= 0 {
		perN := (int64(len(data)) + int64(parts) - 1) / int64(parts)
		plan, err := params.Optimize(pol, sc.Epsilon, perN)
		if err != nil {
			return runResult{}, err
		}
		b, k = plan.B, plan.K
		epsLimit = sc.Epsilon*float64(len(data)) + float64(parts-1)
	}
	sketches, err := buildAbsorbParts(data, parts, b, k, pol)
	if err != nil {
		return runResult{}, err
	}
	res, err := parallel.Combine(sketches, phis)
	if err != nil {
		return runResult{}, err
	}
	return runResult{values: res.Values, count: res.Count, bound: res.ErrorBound, epsLimit: epsLimit}, nil
}

// split cuts data into parts contiguous slices, in stream order, whose
// lengths differ by at most one (the longer ones first).
func split(data []float64, parts int) [][]float64 {
	out := make([][]float64, parts)
	per, extra := len(data)/parts, len(data)%parts
	for i := range out {
		sz := per
		if i < extra {
			sz++
		}
		out[i], data = data[:sz], data[sz:]
	}
	return out
}

// runServe drives the embeddable HTTP serving subsystem through its real
// handler: the registry provisions one summary per metric, ingest
// arrives as JSON batches over POST /ingest (with the weights of a weight
// profile), and the answer (with its live bound) is read back from
// GET /quantile.
func runServe(sc Scenario, backend quantile.Backend, data, ws, phis []float64) (runResult, error) {
	h, err := newNode(sc.Epsilon, int64(len(data)), sc.Backend)
	if err != nil {
		return runResult{}, err
	}
	if err := postIngest(h, data, ws); err != nil {
		return runResult{}, err
	}
	resp, err := getQuantiles(h, phis)
	if err != nil {
		return runResult{}, err
	}
	epsLimit := -1.0 // non-MRL metrics claim only their runtime bound
	if backend == quantile.BackendMRL {
		epsLimit = sc.Epsilon * float64(len(data))
	}
	return runResult{values: resp.Values, count: resp.Count, bound: resp.ErrorBound, epsLimit: epsLimit}, nil
}

// newNode builds one in-process serve node whose registry provisions every
// metric for (epsilon, n) on the backend, and returns its HTTP handler.
func newNode(epsilon float64, n int64, backend string) (http.Handler, error) {
	reg, err := serve.NewRegistry(serve.Config{Epsilon: epsilon, N: n, Backend: backend})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(reg, serve.Options{})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// certMetric is the metric name serve and cluster scenarios ingest into.
const certMetric = "cert"

// ingestBatch is the request body shape of POST /ingest. Weights, when
// present, pairs with Values for weighted ingest.
type ingestBatch struct {
	Metric  string    `json:"metric"`
	Values  []float64 `json:"values"`
	Weights []float64 `json:"weights,omitempty"`
}

// quantileResponse mirrors the GET /quantile body of a serve node and of
// the cluster coordinator; a node leaves the cluster fields (Nodes to
// Missing) zero.
type quantileResponse struct {
	Values     []float64 `json:"values"`
	Count      int64     `json:"count"`
	ErrorBound float64   `json:"errorBound"`
	Nodes      int       `json:"nodes"`
	Height     int       `json:"height"`
	Partial    bool      `json:"partial"`
	Missing    []string  `json:"missingNodes"`
}

// do runs one request through the handler in process and fails on any
// status but 200. Serve and cluster scenarios exercise the full HTTP
// handler path (routing, body decode, query cache, JSON encode) without
// opening a listener, which keeps the certifier deterministic.
func do(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, error) {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("cert: %s %s: status %d: %s", method, target, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

// postIngest sends data to h's POST /ingest as JSON batches of 512 values,
// each with its weights when ws is not nil.
func postIngest(h http.Handler, data, ws []float64) error {
	const batch = 512
	for off := 0; off < len(data); off += batch {
		end := min(off+batch, len(data))
		req := ingestBatch{Metric: certMetric, Values: data[off:end]}
		if ws != nil {
			req.Weights = ws[off:end]
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if _, err := do(h, http.MethodPost, "/ingest", body); err != nil {
			return err
		}
	}
	return nil
}

// getQuantiles asks h's GET /quantile for phis and decodes the answer.
func getQuantiles(h http.Handler, phis []float64) (quantileResponse, error) {
	parts := make([]string, len(phis))
	for i, phi := range phis {
		parts[i] = strconv.FormatFloat(phi, 'g', -1, 64)
	}
	rec, err := do(h, http.MethodGet, "/quantile?metric="+certMetric+"&phi="+strings.Join(parts, ","), nil)
	if err != nil {
		return quantileResponse{}, err
	}
	var resp quantileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return quantileResponse{}, fmt.Errorf("cert: decoding quantile response: %w", err)
	}
	if len(resp.Values) != len(phis) {
		return quantileResponse{}, fmt.Errorf("cert: GET /quantile returned %d values for %d phis", len(resp.Values), len(phis))
	}
	return resp, nil
}
