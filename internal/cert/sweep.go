package cert

import (
	"fmt"

	"mrl/internal/params"
)

// Budget sizes the sweep: how much of the cross-product to cover and how
// long the streams are.
type Budget string

const (
	// BudgetSmall is the CI smoke tier: every policy, estimator stack and
	// metamorphic mode is exercised at short stream lengths (~seconds).
	BudgetSmall Budget = "small"
	// BudgetMedium covers all six arrival orders and longer streams.
	BudgetMedium Budget = "medium"
	// BudgetLarge is the pre-release tier: long streams, extra seeds.
	BudgetLarge Budget = "large"
)

// ParseBudget resolves a -budget flag value.
func ParseBudget(s string) (Budget, error) {
	switch Budget(s) {
	case BudgetSmall, BudgetMedium, BudgetLarge:
		return Budget(s), nil
	default:
		return "", fmt.Errorf("cert: unknown budget %q (want small, medium or large)", s)
	}
}

// Options configures a Certifier.
type Options struct {
	// Seed drives every random choice of the sweep; two runs with the same
	// Seed and Budget check bit-identical scenarios.
	Seed int64
	// Budget selects the sweep tier; empty means BudgetSmall.
	Budget Budget
	// Corrupt, when non-nil, perturbs estimate-mode results after the
	// estimator answers and before scoring. It exists solely to
	// mutation-test the certifier: injecting a known distortion must
	// produce a detected, shrunk, replayable certificate. Production runs
	// leave it nil.
	Corrupt func(sc Scenario, estimates []float64)
	// Logf, when non-nil, receives one line per scenario.
	Logf func(format string, args ...any)
}

// Result aggregates one sweep.
type Result struct {
	Seed   int64  `json:"seed"`
	Budget Budget `json:"budget"`
	// Scenarios and Checks count what ran; a scenario contributes many
	// individual assertions.
	Scenarios int `json:"scenarios"`
	Checks    int `json:"checks"`
	// WorstEpsUtilisation is the largest observed rank error as a fraction
	// of its epsilon*N allowance across all a-priori-claimed checks: 1.0
	// means an estimate landed exactly on the guarantee's edge.
	WorstEpsUtilisation float64 `json:"worstEpsUtilisation"`
	// Certificates holds one shrunk, replayable record per failing
	// scenario. Empty on a clean sweep.
	Certificates []Certificate `json:"certificates,omitempty"`
	// Errors records scenarios that could not run at all (plumbing or
	// infeasibility); a clean sweep has none.
	Errors []string `json:"errors,omitempty"`
}

// OK reports whether the sweep certified every scenario clean.
func (r Result) OK() bool { return len(r.Certificates) == 0 && len(r.Errors) == 0 }

// Summary is the one-line human rendering of the sweep.
func (r Result) Summary() string {
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	return fmt.Sprintf("%s: budget=%s seed=%d scenarios=%d checks=%d worst-eps-utilisation=%.3f violations=%d errors=%d",
		status, r.Budget, r.Seed, r.Scenarios, r.Checks, r.WorstEpsUtilisation, len(r.Certificates), len(r.Errors))
}

// Run executes the full sweep for the certifier's budget and seed: every
// generated scenario is checked, failing scenarios are shrunk to minimal
// reproducers, and the aggregate comes back as a Result. Run itself only
// errors when the sweep cannot even be generated.
func (c *Certifier) Run() (Result, error) {
	budget := c.opts.Budget
	if budget == "" {
		budget = BudgetSmall
	}
	scs, err := Scenarios(budget, c.opts.Seed)
	if err != nil {
		return Result{}, err
	}
	res := Result{Seed: c.opts.Seed, Budget: budget}
	for _, sc := range scs {
		out, err := c.Check(sc)
		res.Scenarios++
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", sc.Name(), err))
			if c.opts.Logf != nil {
				c.opts.Logf("ERROR %s: %v", sc.Name(), err)
			}
			continue
		}
		res.Checks += out.Checks
		if out.EpsRanks > 0 {
			if u := float64(out.WorstRankError) / out.EpsRanks; u > res.WorstEpsUtilisation {
				res.WorstEpsUtilisation = u
			}
		}
		if len(out.Violations) == 0 {
			if c.opts.Logf != nil {
				c.opts.Logf("ok   %s (worst rank error %d, bound %.1f)", sc.Name(), out.WorstRankError, out.Bound)
			}
			continue
		}
		if c.opts.Logf != nil {
			c.opts.Logf("FAIL %s: %d violation(s); shrinking", sc.Name(), len(out.Violations))
		}
		ct, err := c.certify(sc)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", sc.Name(), err))
			continue
		}
		res.Certificates = append(res.Certificates, ct)
	}
	return res, nil
}

// Run is the convenience entry point: sweep under opts and return the
// aggregate result.
func Run(opts Options) (Result, error) {
	return NewCertifier(opts).Run()
}

// sweepPhis is the canonical query set: extremes, tails and bulk.
func sweepPhis() []float64 {
	return []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
}

// sampledDelta is the failure probability sampled scenarios run at. It is
// chosen so small that across every budget's trials the probability of a
// single false alarm is negligible (~1e-5): one observed epsilon violation
// is then overwhelming evidence of a real bug, which is what lets a
// statistical claim gate CI deterministically.
const sampledDelta = 1e-6

// Scenarios generates the deterministic sweep for a budget and seed.
func Scenarios(budget Budget, seed int64) ([]Scenario, error) {
	var (
		ns           []int64
		epss         []float64
		orders       []string
		sampledSeeds int
	)
	switch budget {
	case "", BudgetSmall:
		ns = []int64{512, 2048}
		epss = []float64{0.05, 0.01}
		orders = []string{"sorted", "reversed", "shuffled", "organ-pipe"}
		sampledSeeds = 2
	case BudgetMedium:
		ns = []int64{512, 2048, 8192}
		epss = []float64{0.05, 0.01, 0.005}
		orders = Orders()
		sampledSeeds = 3
	case BudgetLarge:
		ns = []int64{512, 4096, 32768, 131072}
		epss = []float64{0.05, 0.01, 0.002}
		orders = Orders()
		sampledSeeds = 5
	default:
		return nil, fmt.Errorf("cert: unknown budget %q", budget)
	}
	phis := sweepPhis()

	var scs []Scenario
	idx := int64(0)
	derive := func() int64 {
		idx++
		return seed + idx*1000003 // fixed stride decorrelates scenario seeds
	}

	// Direct sketch facade: the full policy x order x (eps, N) product.
	for _, pol := range Policies() {
		for _, order := range orders {
			for _, eps := range epss {
				for _, n := range ns {
					scs = append(scs, Scenario{
						Estimator: EstimatorSketch,
						Policy:    pol, Order: order,
						Epsilon: eps, N: n, Phis: phis, Seed: derive(),
					})
				}
			}
		}
	}

	// Concurrent sharded ingestion.
	for _, pol := range Policies() {
		for _, order := range []string{"sorted", "shuffled"} {
			for _, eps := range epss {
				scs = append(scs, Scenario{
					Estimator: EstimatorConcurrent,
					Policy:    pol, Order: order,
					Epsilon: eps, N: ns[len(ns)-1], Phis: phis,
					Shards: 4, Seed: derive(),
				})
			}
		}
	}

	// Parallel snapshot combine.
	for _, pol := range Policies() {
		for _, order := range []string{"shuffled", "reversed"} {
			scs = append(scs, Scenario{
				Estimator: EstimatorParallel,
				Policy:    pol, Order: order,
				Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis,
				Parts: 3, Seed: derive(),
			})
		}
	}

	// Serve HTTP path (registry provisions the new policy).
	for _, order := range orders {
		scs = append(scs, Scenario{
			Estimator: EstimatorServe,
			Policy:    "new", Order: order,
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
		})
	}

	// Alternative backends through the same stream grid: the KLL sketch and
	// the weighted summary at unit weight. Their geometry does not derive
	// from (Epsilon, N) the MRL way, so the a-priori claim is void and each
	// scenario asserts the backend's own runtime bound, directly, behind
	// the sharded Concurrent front end, and through the serve HTTP path.
	for _, backend := range Backends()[1:] { // skip "mrl": the blocks above are that axis
		for _, order := range orders {
			for _, eps := range epss {
				for _, n := range ns {
					scs = append(scs, Scenario{
						Estimator: EstimatorSketch, Backend: backend,
						Policy: "new", Order: order,
						Epsilon: eps, N: n, Phis: phis, Seed: derive(),
					})
				}
			}
		}
		for _, order := range []string{"sorted", "shuffled"} {
			scs = append(scs, Scenario{
				Estimator: EstimatorConcurrent, Backend: backend,
				Policy: "new", Order: order,
				Epsilon: epss[0], N: ns[len(ns)-1], Phis: phis,
				Shards: 4, Seed: derive(),
			})
		}
		scs = append(scs, Scenario{
			Estimator: EstimatorServe, Backend: backend,
			Policy: "new", Order: "shuffled",
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
		})
		for _, order := range []string{"sorted", "shuffled"} {
			scs = append(scs, Scenario{
				Mode: ModeDuplicates, Estimator: EstimatorSketch, Backend: backend,
				Policy: "new", Order: order,
				Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
			})
		}
	}

	// Sampling front-end: epsilon 0.1 keeps the Lemma 7 sample size small;
	// the stream must exceed it, so N derives from the plan.
	const sampledEps = 0.1
	plan, err := params.OptimizeSampled(sampledEps, sampledDelta, len(phis))
	if err != nil {
		return nil, fmt.Errorf("cert: provisioning sampled scenarios: %w", err)
	}
	sampledN := plan.SampleSize*2 + 512
	for _, order := range []string{"sorted", "shuffled"} {
		for t := 0; t < sampledSeeds; t++ {
			scs = append(scs, Scenario{
				Estimator: EstimatorSketch, Sampled: true,
				Policy: "new", Order: order,
				Epsilon: sampledEps, Delta: sampledDelta,
				N: sampledN, Phis: phis, Seed: derive(),
			})
		}
	}

	// Metamorphic modes.
	for _, pol := range Policies() {
		scs = append(scs, Scenario{
			Mode:   ModeBoundPermutation,
			Policy: pol, Order: "shuffled",
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Seed: derive(),
		})
		scs = append(scs, Scenario{
			Mode:   ModeAssociativity,
			Policy: pol, Order: "shuffled",
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis,
			Parts: 4, Seed: derive(),
		})
		for _, order := range []string{"sorted", "shuffled"} {
			scs = append(scs, Scenario{
				Mode:      ModeDuplicates,
				Estimator: EstimatorSketch,
				Policy:    pol, Order: order,
				Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
			})
		}
		scs = append(scs, Scenario{
			Mode:   ModeAffine,
			Policy: pol, Order: "shuffled",
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
		})
	}

	// Weighted-ingest axis: the weighted backend fed non-unit integer
	// weights and scored against the weight-expanded exact oracle, through
	// every stack that carries weights (direct, sharded, and the HTTP
	// weights field). Appended last so the derive() seed sequence of every
	// scenario above is stable across certifier versions.
	for _, profile := range WeightProfiles() {
		for _, order := range []string{"sorted", "shuffled"} {
			scs = append(scs, Scenario{
				Estimator: EstimatorSketch, Backend: "weighted", WeightProfile: profile,
				Policy: "new", Order: order,
				Epsilon: epss[0], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
			})
		}
		scs = append(scs, Scenario{
			Estimator: EstimatorConcurrent, Backend: "weighted", WeightProfile: profile,
			Policy: "new", Order: "shuffled",
			Epsilon: epss[0], N: ns[len(ns)-1], Phis: phis,
			Shards: 4, Seed: derive(),
		})
		scs = append(scs, Scenario{
			Estimator: EstimatorServe, Backend: "weighted", WeightProfile: profile,
			Policy: "new", Order: "shuffled",
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis, Seed: derive(),
		})
	}

	// Multi-node cluster axis: the scatter/gather coordinator over 1, 2 and
	// 4 storage nodes, each provisioned at the eps/h budget split, queried
	// through both the coordinator API and its HTTP front end. The MRL grid
	// asserts the a-priori epsilon*N claim survives the distribution-graph
	// split; the tight-epsilon pair stresses the pooled-bound headroom and
	// the non-MRL rows assert each backend's runtime bound across the
	// snapshot transfer. Appended after the weighted axis for the same seed
	// stability reason.
	clusterOrders := []string{"sorted", "reversed", "shuffled", "organ-pipe"}
	for _, nodes := range []int{1, 2, 4} {
		for _, order := range clusterOrders {
			for _, via := range []string{"api", "http"} {
				scs = append(scs, Scenario{
					Estimator: EstimatorCluster,
					Policy:    "new", Order: order,
					Epsilon: epss[0], N: ns[len(ns)-1], Phis: phis,
					Nodes: nodes, ClusterVia: via, Seed: derive(),
				})
			}
		}
	}
	for _, nodes := range []int{2, 4} {
		scs = append(scs, Scenario{
			Estimator: EstimatorCluster,
			Policy:    "new", Order: "shuffled",
			Epsilon: epss[len(epss)-1], N: ns[len(ns)-1], Phis: phis,
			Nodes: nodes, ClusterVia: "api", Seed: derive(),
		})
	}
	for _, backend := range Backends()[1:] {
		for _, nodes := range []int{2, 4} {
			for _, order := range []string{"sorted", "shuffled"} {
				scs = append(scs, Scenario{
					Estimator: EstimatorCluster, Backend: backend,
					Policy: "new", Order: order,
					Epsilon: epss[0], N: ns[len(ns)-1], Phis: phis,
					Nodes: nodes, ClusterVia: "api", Seed: derive(),
				})
			}
		}
	}
	return scs, nil
}
