package cert

import (
	"reflect"
	"testing"
)

// TestScenariosDeterministic pins the sweep generator: same budget and seed
// must produce the identical scenario list, and every scenario must carry a
// distinct derived seed so failures point at exactly one stream.
func TestScenariosDeterministic(t *testing.T) {
	a, err := Scenarios(BudgetSmall, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	b, err := Scenarios(BudgetSmall, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations with the same budget and seed differ")
	}
	if len(a) < 80 {
		t.Fatalf("small sweep has only %d scenarios; the cross-product collapsed", len(a))
	}
	seeds := make(map[int64]bool, len(a))
	for _, sc := range a {
		if seeds[sc.Seed] {
			t.Fatalf("duplicate derived seed %d (scenario %s)", sc.Seed, sc.Name())
		}
		seeds[sc.Seed] = true
	}
	c, err := Scenarios(BudgetSmall, 2)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	if a[0].Seed == c[0].Seed {
		t.Fatal("changing the sweep seed did not change derived scenario seeds")
	}
}

// TestScenariosCoverage asserts the small sweep really spans the advertised
// cross-product: every policy, every estimator stack, the sampling
// front-end, and every metamorphic mode.
func TestScenariosCoverage(t *testing.T) {
	scs, err := Scenarios(BudgetSmall, 1)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	policies := map[string]bool{}
	estimators := map[string]bool{}
	modes := map[string]bool{}
	backends := map[string]bool{}
	sampled := false
	for _, sc := range scs {
		policies[sc.Policy] = true
		if sc.Mode == "" || sc.Mode == ModeEstimate {
			est := sc.Estimator
			if est == "" {
				est = EstimatorSketch
			}
			estimators[est] = true
		}
		if sc.Mode != "" {
			modes[sc.Mode] = true
		}
		b := sc.Backend
		if b == "" {
			b = "mrl"
		}
		backends[b] = true
		if sc.Backend != "" {
			if est := sc.Estimator; est == EstimatorConcurrent || est == EstimatorServe {
				backends[sc.Backend+"/"+est] = true
			}
		}
		if sc.Sampled {
			sampled = true
		}
	}
	for _, p := range Policies() {
		if !policies[p] {
			t.Errorf("sweep never exercises policy %q", p)
		}
	}
	for _, e := range []string{EstimatorSketch, EstimatorConcurrent, EstimatorParallel, EstimatorServe} {
		if !estimators[e] {
			t.Errorf("sweep never exercises estimator %q", e)
		}
	}
	for _, m := range []string{ModeBoundPermutation, ModeAssociativity, ModeDuplicates, ModeAffine} {
		if !modes[m] {
			t.Errorf("sweep never exercises mode %q", m)
		}
	}
	for _, b := range Backends() {
		if !backends[b] {
			t.Errorf("sweep never exercises backend %q", b)
		}
	}
	for _, combo := range []string{
		"kll/" + EstimatorConcurrent, "kll/" + EstimatorServe,
		"weighted/" + EstimatorConcurrent, "weighted/" + EstimatorServe,
	} {
		if !backends[combo] {
			t.Errorf("sweep never exercises backend combination %q", combo)
		}
	}
	if !sampled {
		t.Error("sweep never exercises the sampling front-end")
	}
}

// TestSmallSweepCertifiesClean is the headline property: the full small
// sweep — every policy x order x estimator stack x front-end, plus all
// metamorphic modes — certifies with zero violations and zero errors.
func TestSmallSweepCertifiesClean(t *testing.T) {
	res, err := Run(Options{Seed: 1, Budget: BudgetSmall})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, e := range res.Errors {
		t.Errorf("scenario error: %s", e)
	}
	for _, ct := range res.Certificates {
		js, _ := ct.MarshalIndent()
		t.Errorf("violation certificate:\n%s", js)
	}
	if res.Scenarios < 80 || res.Checks < 1000 {
		t.Fatalf("sweep too small: %d scenarios, %d checks", res.Scenarios, res.Checks)
	}
	if res.WorstEpsUtilisation > 1 {
		t.Fatalf("worst epsilon utilisation %.3f exceeds 1: guarantee violated", res.WorstEpsUtilisation)
	}
	if !res.OK() {
		t.Fatalf("sweep did not certify: %s", res.Summary())
	}
}

// TestCheckDeterministic asserts a scenario replays bit-identically: two
// Check calls on the same scenario must produce deeply equal outcomes.
// This is the property that makes certificates replayable at all.
func TestCheckDeterministic(t *testing.T) {
	c := NewCertifier(Options{})
	for _, sc := range []Scenario{
		{Policy: "new", Order: "shuffled", Epsilon: 0.05, N: 1024, Phis: sweepPhis(), Seed: 42},
		{Policy: "munro-paterson", Order: "blocked", Epsilon: 0.05, N: 1024, Phis: sweepPhis(), Seed: 42, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Sampled: true, Delta: 1e-6, Epsilon: 0.1, N: 20000, Phis: sweepPhis(), Seed: 42},
		{Policy: "new", Order: "shuffled", Epsilon: 0.05, N: 1024, Phis: sweepPhis(), Seed: 42, Backend: "kll"},
		{Policy: "new", Order: "shuffled", Epsilon: 0.05, N: 1024, Phis: sweepPhis(), Seed: 42, Backend: "weighted", Estimator: EstimatorConcurrent},
	} {
		first, err := c.Check(sc)
		if err != nil {
			t.Fatalf("Check(%s): %v", sc.Name(), err)
		}
		second, err := c.Check(sc)
		if err != nil {
			t.Fatalf("Check(%s) replay: %v", sc.Name(), err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("Check(%s) is not deterministic:\nfirst  %+v\nsecond %+v", sc.Name(), first, second)
		}
	}
}

// TestCheckRejectsMalformedScenarios asserts unknown names and impossible
// parameters surface as errors, not as silent passes.
func TestCheckRejectsMalformedScenarios(t *testing.T) {
	c := NewCertifier(Options{})
	phis := sweepPhis()
	cases := []Scenario{
		{Policy: "gk01", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis},
		{Policy: "new", Order: "spiral", Epsilon: 0.05, N: 256, Phis: phis},
		{Mode: "chaos", Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 0, Phis: phis},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 64, Phis: phis, Sampled: true, Delta: 1e-6},
		{Policy: "munro-paterson", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6},
		{Policy: "munro-paterson", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Estimator: EstimatorServe},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Estimator: "abacus"},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "abacus"},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Backend: "kll", Sampled: true, Delta: 1e-6},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll", Estimator: EstimatorParallel},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", B: 4, K: 8},
		{Mode: ModeAffine, Policy: "new", Order: "shuffled", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll"},
		// A weight profile needs the weighted backend, estimate mode, a
		// stack that carries weights and a profile the harness knows.
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, WeightProfile: "cycle"},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll", WeightProfile: "cycle"},
		{Mode: ModeDuplicates, Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", WeightProfile: "cycle"},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", WeightProfile: "cycle", Estimator: EstimatorParallel},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", WeightProfile: "cycle", Estimator: EstimatorCluster},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", WeightProfile: "lumpy"},
		// Geometry a stack does not have: B on KLL, B or K on the weighted
		// summary, B or K where serve or cluster nodes size their own.
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll", B: 4, K: 8},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll", B: 4, K: 8, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", WeightProfile: "cycle", K: 8},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", WeightProfile: "heavy", B: 4, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, B: 4, K: 8, Estimator: EstimatorServe},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, B: 4, Estimator: EstimatorCluster},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, K: 8, Estimator: EstimatorCluster},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Estimator: EstimatorCluster, ClusterVia: "pigeon"},
		// The sampled claim needs a failure probability strictly inside (0,1).
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1},
		// Scenarios that used to run as something else: only the direct MRL
		// sketch has a sampling front-end, whose plan sizes its own
		// geometry, the weighted summary and serve nodes have no K, only
		// direct KLL takes a Delta, and the metamorphic modes run
		// deterministic sketches.
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6, Estimator: EstimatorParallel},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6, Estimator: EstimatorServe},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6, Estimator: EstimatorCluster},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6, Backend: "weighted", WeightProfile: "cycle"},
		{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6, B: 4, K: 8},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", K: 8},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "weighted", K: 8, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, K: 8, Estimator: EstimatorServe},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll", Delta: 0.3, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, Backend: "kll", Delta: 0.3, Estimator: EstimatorServe},
		{Mode: ModeAffine, Policy: "new", Order: "shuffled", Epsilon: 0.1, N: 20000, Phis: phis, Sampled: true, Delta: 1e-6},
		// An MRL K without a B used to run the optimizer's geometry.
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, K: 8},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, K: 8, Estimator: EstimatorConcurrent},
		{Policy: "new", Order: "sorted", Epsilon: 0.05, N: 256, Phis: phis, K: 8, Estimator: EstimatorParallel, Parts: 2},
		{Mode: ModeBoundPermutation, Policy: "new", Order: "shuffled", Epsilon: 0.05, N: 256, K: 8},
	}
	for _, sc := range cases {
		if _, err := c.Check(sc); err == nil {
			t.Errorf("Check(%s) accepted a malformed scenario", sc.Name())
		}
	}
}

// TestScenarioName pins the compact identifier: a sampled scenario keeps
// its backend and weight profile, and a K without a B (KLL's accuracy
// parameter, which the shrinker pins) shows on its own.
func TestScenarioName(t *testing.T) {
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Policy: "new", Order: "sorted", Epsilon: 0.1, N: 100},
			"estimate/sketch/new/sorted/eps=0.1/n=100/phis=0/seed=0"},
		{Scenario{Backend: "weighted", WeightProfile: "cycle", Sampled: true, Delta: 1e-6, Policy: "new", Order: "sorted", Epsilon: 0.1, N: 100},
			"estimate/sketch/new/sorted/eps=0.1/n=100/phis=0/seed=0/backend=weighted/weights=cycle/sampled(delta=1e-06)"},
		{Scenario{Sampled: true, Delta: 1e-6, Policy: "new", Order: "shuffled", Epsilon: 0.1, N: 20000, Phis: sweepPhis(), Seed: 4},
			"estimate/sketch/new/shuffled/eps=0.1/n=20000/phis=9/seed=4/sampled(delta=1e-06)"},
		{Scenario{Estimator: EstimatorConcurrent, Backend: "kll", K: 64, Policy: "new", Order: "sorted", Epsilon: 0.05, N: 512, Phis: []float64{0.5}, Seed: 2},
			"estimate/concurrent/new/sorted/eps=0.05/n=512/phis=1/seed=2/backend=kll/k=64"},
		{Scenario{Mode: ModeDuplicates, Policy: "munro-paterson", Order: "organ-pipe", Epsilon: 0.01, N: 2048, Seed: 7, B: 5, K: 9},
			"duplicates/sketch/munro-paterson/organ-pipe/eps=0.01/n=2048/phis=0/seed=7/b=5,k=9"},
		{Scenario{Estimator: EstimatorCluster, Backend: "weighted", Policy: "new", Order: "sorted", Epsilon: 0.05, N: 2048, Seed: 3, Nodes: 2, ClusterVia: "http"},
			"estimate/cluster/new/sorted/eps=0.05/n=2048/phis=0/seed=3/backend=weighted/nodes=2/via=http"},
	} {
		if got := tc.sc.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestMetamorphicModesPass runs each metamorphic mode directly for every
// policy, outside the sweep, so a future sweep reshuffle cannot silently
// drop them.
func TestMetamorphicModesPass(t *testing.T) {
	c := NewCertifier(Options{})
	for _, pol := range Policies() {
		for _, mode := range []string{ModeBoundPermutation, ModeAssociativity, ModeDuplicates, ModeAffine} {
			sc := Scenario{
				Mode:   mode,
				Policy: pol, Order: "shuffled",
				Epsilon: 0.02, N: 1500, Phis: sweepPhis(), Seed: 9, Parts: 3,
			}
			out, err := c.Check(sc)
			if err != nil {
				t.Fatalf("Check(%s): %v", sc.Name(), err)
			}
			if out.Checks == 0 {
				t.Errorf("%s: ran zero assertions", sc.Name())
			}
			for _, v := range out.Violations {
				t.Errorf("%s: %s", sc.Name(), v)
			}
		}
	}
}
