package cert

import (
	"fmt"
	"math"
	"math/rand"

	"mrl/internal/core"
	"mrl/internal/stream"
	"mrl/internal/validate"
	"mrl/quantile"
)

// Check modes. ModeEstimate streams a dataset through one estimator stack
// and scores its answers against the exact oracle; the metamorphic modes
// certify cross-run properties a single estimate cannot witness.
const (
	// ModeEstimate is the default: stream, query, score against the oracle.
	ModeEstimate = "estimate"
	// ModeBoundPermutation asserts the Lemma 5 accounting (Stats and
	// ErrorBound) is invariant under the arrival order: the collapse
	// schedule depends only on how many elements arrived, never on their
	// values.
	ModeBoundPermutation = "bound-permutation"
	// ModeAssociativity asserts Absorb is association-insensitive as far as
	// the guarantee is concerned: left- and right-associated merge chains
	// and the flat snapshot combine all stay within their own reported
	// bounds of the exact oracle and agree on the element count.
	ModeAssociativity = "associativity"
	// ModeDuplicates streams a heavily duplicated dataset: the guarantee is
	// distribution-free, so ties must not degrade it.
	ModeDuplicates = "duplicates"
	// ModeAffine asserts exact equivariance under x -> a*x + c (a > 0): the
	// algorithm only compares and selects, so the transformed stream must
	// yield exactly the transformed answers, with an identical bound.
	ModeAffine = "affine"
)

// Estimator stacks ModeEstimate can drive.
const (
	// EstimatorSketch is the public quantile.Sketch facade over one core
	// sketch (or the sampling front-end when Scenario.Sampled is set).
	EstimatorSketch = "sketch"
	// EstimatorConcurrent is the sharded quantile.Concurrent ingest path.
	EstimatorConcurrent = "concurrent"
	// EstimatorParallel partitions the stream across independent core
	// sketches and combines them with parallel.Combine (§4.9).
	EstimatorParallel = "parallel"
	// EstimatorServe drives the internal/serve HTTP handler end to end:
	// POST /ingest batches, then GET /quantile.
	EstimatorServe = "serve"
	// EstimatorCluster shards the stream across Nodes quantiled storage
	// nodes (each provisioned at the eps/h split of the distribution-graph
	// budget) and answers through the internal/cluster coordinator's
	// scatter/gather snapshot merge.
	EstimatorCluster = "cluster"
)

// Scenario is one fully self-contained, replayable certification case.
// The zero values of optional fields pick the documented defaults, so a
// Scenario round-trips through JSON without losing meaning.
type Scenario struct {
	// Mode selects the check; empty means ModeEstimate.
	Mode string `json:"mode,omitempty"`
	// Policy is the collapsing policy name: "new", "munro-paterson" or
	// "alsabti-ranka-singh" (the core.Policy String values).
	Policy string `json:"policy"`
	// Order is the arrival order: "sorted", "reversed", "shuffled",
	// "zigzag", "organ-pipe" or "blocked".
	Order string `json:"order"`
	// Estimator is the stack under test (ModeEstimate / ModeDuplicates).
	Estimator string `json:"estimator,omitempty"`
	// Backend selects the quantile summary implementation: "" or "mrl" is
	// the paper's deterministic multi-level summary, "kll" the KLL sketch,
	// "weighted" the GK-style weighted summary, fed at unit weight unless
	// WeightProfile is set. Non-MRL backends do not derive their geometry
	// from (Epsilon, N) the MRL way, so the a-priori epsilon claim is void
	// and only each backend's own runtime bound is asserted. Supported with
	// EstimatorSketch, EstimatorConcurrent, EstimatorServe and
	// EstimatorCluster.
	Backend string `json:"backend,omitempty"`
	// WeightProfile, when set, feeds the stream through the weighted ingest
	// face with deterministic non-unit integer weights ("cycle": weights
	// 1..5 cycling; "heavy": every 16th element carries weight 32). The
	// oracle is then the weight-expanded dataset — each element repeated
	// weight times — so the backend's weight-unit bound is asserted against
	// exact weighted ranks. Requires Backend "weighted" and ModeEstimate
	// with EstimatorSketch, EstimatorConcurrent or EstimatorServe.
	WeightProfile string `json:"weights,omitempty"`
	// Sampled switches EstimatorSketch to the Section 5 sampling
	// front-end; Delta is then the permitted failure probability. Only the
	// MRL backend on EstimatorSketch, outside the metamorphic modes, has
	// one; elsewhere, or with explicit B or K, Sampled is refused. Without
	// Sampled, Delta is the confidence of the kll backend's bound, which
	// only the direct EstimatorSketch run takes.
	Sampled bool    `json:"sampled,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Epsilon is the rank-error tolerance the run is provisioned for.
	Epsilon float64 `json:"epsilon"`
	// N is the stream length.
	N int64 `json:"n"`
	// Phis are the quantile fractions queried and scored.
	Phis []float64 `json:"phis"`
	// Seed drives every random choice (shuffles, block orders, sampling).
	Seed int64 `json:"seed"`
	// Shards (EstimatorConcurrent) is the writer-shard count; 0 means 4.
	Shards int `json:"shards,omitempty"`
	// Parts (EstimatorParallel / ModeAssociativity) is the partition
	// count; 0 means 4.
	Parts int `json:"parts,omitempty"`
	// B and K, when positive, bypass the optimizer and size the sketch
	// explicitly; an MRL sketch needs both (B >= 2, K >= 1) and refuses
	// one alone. The a-priori epsilon claim is then void (the geometry no
	// longer derives from Epsilon), so only the runtime-bound property is
	// checked; the shrinker uses this to minimise b*k in bound failures.
	// For the kll backend K alone is the sketch's accuracy parameter (B is
	// refused); the shrinker pins it from Epsilon and then halves it. The
	// weighted backend and the serve and cluster stacks size their own
	// geometry and refuse both.
	B int `json:"b,omitempty"`
	K int `json:"k,omitempty"`
	// Nodes (EstimatorCluster) is the storage-node count of the
	// scatter/gather cluster; 0 means 3. Each node is provisioned at
	// epsilon/h over its ceil(N/Nodes) slice (h = 2 for a multi-node
	// cluster), so the coordinator's merged answer still certifies the
	// a-priori epsilon*N claim for the MRL backend.
	Nodes int `json:"nodes,omitempty"`
	// ClusterVia (EstimatorCluster) selects the query face: "api" (default)
	// asks the coordinator directly, "http" goes through the coordinator's
	// GET /quantile front end.
	ClusterVia string `json:"clusterVia,omitempty"`
}

// Name is the compact scenario identifier used in logs and failures.
func (sc Scenario) Name() string {
	mode := sc.Mode
	if mode == "" {
		mode = ModeEstimate
	}
	est := sc.Estimator
	if est == "" {
		est = EstimatorSketch
	}
	extra := ""
	if sc.Backend != "" {
		extra += "/backend=" + sc.Backend
	}
	if sc.WeightProfile != "" {
		extra += "/weights=" + sc.WeightProfile
	}
	if sc.Sampled {
		extra += fmt.Sprintf("/sampled(delta=%g)", sc.Delta)
	}
	if sc.B > 0 {
		extra += fmt.Sprintf("/b=%d,k=%d", sc.B, sc.K)
	} else if sc.K > 0 {
		extra += fmt.Sprintf("/k=%d", sc.K)
	}
	if sc.Nodes > 0 {
		extra += fmt.Sprintf("/nodes=%d", sc.Nodes)
	}
	if sc.ClusterVia != "" {
		extra += "/via=" + sc.ClusterVia
	}
	return fmt.Sprintf("%s/%s/%s/%s/eps=%g/n=%d/phis=%d/seed=%d%s",
		mode, est, sc.Policy, sc.Order, sc.Epsilon, sc.N, len(sc.Phis), sc.Seed, extra)
}

// shardsOrDefault returns the effective shard count.
func (sc Scenario) shardsOrDefault() int {
	if sc.Shards > 0 {
		return sc.Shards
	}
	return 4
}

// sizesOwnGeometry reports whether the scenario's stack chooses its own
// geometry, for the new policy only: the sampling front-end from its
// sampling plan, serve and cluster nodes from their registry's (epsilon, N).
func (sc Scenario) sizesOwnGeometry() bool {
	return sc.Sampled || sc.Estimator == EstimatorServe || sc.Estimator == EstimatorCluster
}

// nodesOrDefault returns the effective cluster node count.
func (sc Scenario) nodesOrDefault() int {
	if sc.Nodes > 0 {
		return sc.Nodes
	}
	return 3
}

// partsOrDefault returns the effective partition count.
func (sc Scenario) partsOrDefault() int {
	if sc.Parts > 0 {
		return sc.Parts
	}
	return 4
}

// corePolicy resolves the scenario's policy name.
func (sc Scenario) corePolicy() (core.Policy, error) {
	switch sc.Policy {
	case "new":
		return core.PolicyNew, nil
	case "munro-paterson":
		return core.PolicyMunroPaterson, nil
	case "alsabti-ranka-singh":
		return core.PolicyARS, nil
	default:
		return 0, fmt.Errorf("cert: unknown policy %q", sc.Policy)
	}
}

// facadePolicy resolves the policy for the public quantile API.
func (sc Scenario) facadePolicy() (quantile.Policy, error) {
	switch sc.Policy {
	case "new":
		return quantile.PolicyNew, nil
	case "munro-paterson":
		return quantile.PolicyMunroPaterson, nil
	case "alsabti-ranka-singh":
		return quantile.PolicyARS, nil
	default:
		return 0, fmt.Errorf("cert: unknown policy %q", sc.Policy)
	}
}

// source builds the scenario's permutation stream of 1..n.
func (sc Scenario) source() (stream.Source, error) {
	return orderSource(sc.Order, sc.N, sc.Seed)
}

func orderSource(order string, n, seed int64) (stream.Source, error) {
	if n < 1 {
		return nil, fmt.Errorf("cert: stream length %d must be positive", n)
	}
	switch order {
	case "sorted":
		return stream.Sorted(n), nil
	case "reversed":
		return stream.Reversed(n), nil
	case "shuffled":
		return stream.Shuffled(n, seed), nil
	case "zigzag":
		return stream.Zigzag(n), nil
	case "organ-pipe":
		return stream.OrganPipe(n), nil
	case "blocked":
		blocks := 16
		if int64(blocks) > n {
			blocks = int(n)
		}
		return stream.Blocked(n, blocks, seed), nil
	default:
		return nil, fmt.Errorf("cert: unknown arrival order %q", order)
	}
}

// Orders lists every arrival order the certifier understands.
func Orders() []string {
	return []string{"sorted", "reversed", "shuffled", "zigzag", "organ-pipe", "blocked"}
}

// Policies lists every collapsing policy name the certifier understands.
func Policies() []string {
	return []string{"new", "munro-paterson", "alsabti-ranka-singh"}
}

// Backends lists every quantile backend the certifier understands, the MRL
// default first.
func Backends() []string {
	return []string{"mrl", "kll", "weighted"}
}

// WeightProfiles lists every weighted-ingest profile the certifier
// understands. All profiles are integer-valued so the weight-expanded
// oracle is exact.
func WeightProfiles() []string {
	return []string{"cycle", "heavy"}
}

// buildWeights materialises the scenario's deterministic weight vector for
// an n-element dataset. Position i's weight depends only on i, so a shrunk
// scenario (smaller N) rebuilds a strict prefix of the original weights.
func (sc Scenario) buildWeights(n int) ([]float64, error) {
	ws := make([]float64, n)
	switch sc.WeightProfile {
	case "cycle":
		for i := range ws {
			ws[i] = float64(i%5 + 1)
		}
	case "heavy":
		for i := range ws {
			if i%16 == 0 {
				ws[i] = 32
			} else {
				ws[i] = 1
			}
		}
	default:
		return nil, fmt.Errorf("cert: unknown weight profile %q (want one of %v)", sc.WeightProfile, WeightProfiles())
	}
	return ws, nil
}

// expandWeighted materialises the exact oracle of a weighted stream: each
// element repeated weight times, so ranks over the expansion are the
// weighted ranks the backend's weight-unit bound speaks about. Weights must
// be positive integers (every WeightProfile is).
func expandWeighted(data, ws []float64) []float64 {
	var total int
	for _, w := range ws {
		total += int(w)
	}
	out := make([]float64, 0, total)
	for i, v := range data {
		for c := 0; c < int(ws[i]); c++ {
			out = append(out, v)
		}
	}
	return out
}

// buildData materialises the dataset a ModeEstimate / ModeDuplicates run
// streams: a permutation of 1..N, or (duplicates) each value of 1..N/4
// repeated four times, arranged in the scenario's arrival order.
func (sc Scenario) buildData() ([]float64, error) {
	if sc.Mode == ModeDuplicates {
		return sc.buildDuplicatedData()
	}
	src, err := sc.source()
	if err != nil {
		return nil, err
	}
	return stream.Drain(src), nil
}

// duplicateFactor is how many copies of each distinct value the
// ModeDuplicates dataset carries.
const duplicateFactor = 4

// buildDuplicatedData arranges a sorted, duplicated dataset in the
// scenario's arrival order by using the order's rank permutation as an
// index sequence: position i receives the (perm(i))-th smallest element.
func (sc Scenario) buildDuplicatedData() ([]float64, error) {
	distinct := sc.N / duplicateFactor
	if distinct < 1 {
		distinct = 1
	}
	n := distinct * duplicateFactor
	sorted := make([]float64, 0, n)
	for v := int64(1); v <= distinct; v++ {
		for c := 0; c < duplicateFactor; c++ {
			sorted = append(sorted, float64(v))
		}
	}
	src, err := orderSource(sc.Order, n, sc.Seed)
	if err != nil {
		return nil, err
	}
	data := make([]float64, 0, n)
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		data = append(data, sorted[int64(r)-1])
	}
	return data, nil
}

// Violation is one failed assertion of a check.
type Violation struct {
	// Kind is "epsilon", "bound", "count", or "metamorphic-*".
	Kind string `json:"kind"`
	// Phi is the quantile fraction the violation occurred at, when the
	// assertion is per-quantile.
	Phi float64 `json:"phi,omitempty"`
	// Observed is the measured quantity (rank error, differing bound, ...).
	Observed float64 `json:"observed"`
	// Limit is the value Observed was required to stay within.
	Limit float64 `json:"limit"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: observed %.6g > limit %.6g (phi=%g) %s", v.Kind, v.Observed, v.Limit, v.Phi, v.Detail)
}

// Outcome is the scored result of one scenario check.
type Outcome struct {
	Scenario Scenario `json:"scenario"`
	// Count is the element count the estimator reported.
	Count int64 `json:"count"`
	// Bound is the runtime Lemma 5 rank-error bound the estimator reported
	// at query time; -1 when the stack claims none (sampled front-end).
	Bound float64 `json:"bound"`
	// EpsRanks is the a-priori allowance Epsilon*N in ranks; -1 when the
	// scenario's explicit geometry voids the a-priori claim.
	EpsRanks float64 `json:"epsRanks"`
	// WorstRankError is the largest observed rank error across Phis.
	WorstRankError int64 `json:"worstRankError"`
	// Checks is the number of individual assertions evaluated.
	Checks int `json:"checks"`
	// Violations holds every failed assertion; empty means the scenario
	// certified clean.
	Violations []Violation `json:"violations,omitempty"`
}

// Certifier runs scenario checks under one fixed set of Options.
type Certifier struct {
	opts Options
}

// NewCertifier returns a certifier; see Options for the knobs.
func NewCertifier(opts Options) *Certifier {
	return &Certifier{opts: opts}
}

// Check runs one scenario and scores every assertion it implies. An error
// means the scenario could not be run at all (unknown names, infeasible
// sampling plans); violations of the guarantee are reported in the Outcome,
// not as errors.
func (c *Certifier) Check(sc Scenario) (Outcome, error) {
	mode := sc.Mode
	if mode == "" {
		mode = ModeEstimate
	}
	switch mode {
	case ModeEstimate, ModeDuplicates:
		return c.checkEstimate(sc)
	}
	// The metamorphic modes certify MRL-specific machinery (Lemma 5
	// accounting, snapshot combine) on deterministic sketches; a scenario
	// naming another backend or sampling is malformed, not silently run
	// against the wrong implementation.
	if sc.WeightProfile != "" {
		return Outcome{}, fmt.Errorf("cert: mode %q does not support weighted ingest", mode)
	}
	if sc.Sampled {
		return Outcome{}, fmt.Errorf("cert: mode %q certifies the deterministic sketch; sampling unsupported", mode)
	}
	if b, err := quantile.ParseBackend(sc.Backend); err != nil {
		return Outcome{}, err
	} else if b != quantile.BackendMRL {
		return Outcome{}, fmt.Errorf("cert: mode %q certifies MRL-specific properties; backend %q unsupported", mode, sc.Backend)
	}
	switch mode {
	case ModeBoundPermutation:
		return c.checkBoundPermutation(sc)
	case ModeAssociativity:
		return c.checkAssociativity(sc)
	case ModeAffine:
		return c.checkAffine(sc)
	default:
		return Outcome{}, fmt.Errorf("cert: unknown mode %q", sc.Mode)
	}
}

// floatEqTol absorbs float roundoff when comparing an integer rank error
// against epsilon*N; it is far below one rank, the guarantee's granularity.
const floatEqTol = 1e-9

// checkEstimate is the core scoring path: build the dataset, run the
// estimator stack, and assert the two guarantees per phi plus the count.
func (c *Certifier) checkEstimate(sc Scenario) (Outcome, error) {
	if len(sc.Phis) == 0 {
		return Outcome{}, fmt.Errorf("cert: scenario %s has no phis", sc.Name())
	}
	data, err := sc.buildData()
	if err != nil {
		return Outcome{}, err
	}
	var ws []float64
	if sc.WeightProfile != "" {
		if ws, err = sc.buildWeights(len(data)); err != nil {
			return Outcome{}, err
		}
	}
	rr, err := runEstimator(sc, data, ws, sc.Phis)
	if err != nil {
		return Outcome{}, err
	}
	if c.opts.Corrupt != nil {
		c.opts.Corrupt(sc, rr.values)
	}
	out := Outcome{Scenario: sc, Count: rr.count, Bound: rr.bound, EpsRanks: rr.epsLimit}

	// Weighted scenarios are scored against the weight-expanded exact
	// oracle: the backend's bound is in weight units, which are exactly the
	// ranks of the expansion. The count check below still uses the
	// unexpanded dataset — estimators count elements, not weight.
	oracle := data
	if ws != nil {
		oracle = expandWeighted(data, ws)
	}

	rep, err := validate.Evaluate(sc.Name(), oracle, sc.Phis, rr.values)
	if err != nil {
		return Outcome{}, fmt.Errorf("cert: scoring %s: %w", sc.Name(), err)
	}

	out.Checks++
	if rr.count != int64(len(data)) {
		out.Violations = append(out.Violations, Violation{
			Kind:     "count",
			Observed: float64(rr.count),
			Limit:    float64(len(data)),
			Detail:   "estimator count disagrees with elements streamed",
		})
	}
	if rr.bound >= 0 {
		out.Checks++
		if math.IsNaN(rr.bound) || math.IsInf(rr.bound, 0) {
			out.Violations = append(out.Violations, Violation{
				Kind:     "bound",
				Observed: rr.bound,
				Limit:    0,
				Detail:   "runtime bound is not finite",
			})
		}
	}
	for _, q := range rep.Results {
		if q.RankError > out.WorstRankError {
			out.WorstRankError = q.RankError
		}
		if rr.epsLimit >= 0 {
			out.Checks++
			if float64(q.RankError) > rr.epsLimit+floatEqTol {
				detail := "a-priori claim: rank error exceeds epsilon*N"
				if sc.Sampled {
					detail = fmt.Sprintf("probabilistic claim (delta=%g): rank error exceeds epsilon*N", sc.Delta)
				}
				out.Violations = append(out.Violations, Violation{
					Kind:     "epsilon",
					Phi:      q.Phi,
					Observed: float64(q.RankError),
					Limit:    rr.epsLimit,
					Detail:   detail,
				})
			}
		}
		if rr.bound >= 0 {
			out.Checks++
			if float64(q.RankError) > rr.bound+floatEqTol {
				out.Violations = append(out.Violations, Violation{
					Kind:     "bound",
					Phi:      q.Phi,
					Observed: float64(q.RankError),
					Limit:    rr.bound,
					Detail:   "a-posteriori claim: rank error exceeds the runtime ErrorBound served with the answer",
				})
			}
		}
	}
	return out, nil
}

// scenarioRand returns the scenario's deterministic random source; every
// random choice inside a check must come from here (or from the stream
// seeds) so a Scenario replays bit-identically.
func (sc Scenario) scenarioRand() *rand.Rand {
	return rand.New(rand.NewSource(sc.Seed))
}
