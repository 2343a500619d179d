package quantile

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mrl/internal/validate"
)

func TestParseBackend(t *testing.T) {
	for in, want := range map[string]Backend{
		"": BackendMRL, "mrl": BackendMRL, "kll": BackendKLL, "weighted": BackendWeighted,
	} {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"KLL", "gk", "mrl2", " mrl"} {
		if _, err := ParseBackend(in); !errors.Is(err, ErrUnknownBackend) {
			t.Errorf("ParseBackend(%q) err = %v, want ErrUnknownBackend", in, err)
		}
	}
}

func TestNewEstimatorBackends(t *testing.T) {
	cfg := Config{Epsilon: 0.01, N: 100000}
	for _, b := range []Backend{BackendMRL, BackendKLL, BackendWeighted, ""} {
		est, err := NewEstimator(b, cfg)
		if err != nil {
			t.Fatalf("NewEstimator(%q): %v", b, err)
		}
		if err := est.AddBatch([]float64{3, 1, 2}); err != nil {
			t.Fatalf("%q AddBatch: %v", b, err)
		}
		med, err := est.Quantile(0.5)
		if err != nil || med != 2 {
			t.Fatalf("%q median = %v, %v", b, med, err)
		}
		if est.Count() != 3 {
			t.Fatalf("%q count = %d", b, est.Count())
		}
	}
	if _, err := NewEstimator("bogus", cfg); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("bogus backend err = %v", err)
	}
	// KLL without Epsilon or K cannot be sized.
	if _, err := NewEstimator(BackendKLL, Config{}); err == nil {
		t.Fatal("unsized kll accepted")
	}
	// Explicit K sizes KLL directly.
	e, err := NewKLL(Config{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	if e.K() != 32 {
		t.Fatalf("K = %d", e.K())
	}
}

// TestEstimatorContract drives every backend through the full interface:
// ingest, queries, empty-error mapping, stats, snapshot round-trip under
// further adds, absorb, reset.
func TestEstimatorContract(t *testing.T) {
	cfg := Config{Epsilon: 0.02, N: 50000, Seed: 3}
	for _, b := range []Backend{BackendMRL, BackendKLL, BackendWeighted} {
		t.Run(string(b), func(t *testing.T) {
			est, err := NewEstimator(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Empty queries map to this package's ErrEmpty.
			if _, err := est.Quantile(0.5); !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty Quantile err = %v", err)
			}
			if _, err := est.Quantiles([]float64{0.5}); !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty Quantiles err = %v", err)
			}
			if _, err := est.Min(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty Min err = %v", err)
			}
			if _, err := est.Max(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty Max err = %v", err)
			}
			// NaN all-or-nothing on AddBatch.
			if err := est.AddBatch([]float64{1, math.NaN()}); err == nil {
				t.Fatal("NaN batch accepted")
			}
			if est.Count() != 0 {
				t.Fatal("rejected batch landed")
			}

			rng := rand.New(rand.NewSource(11))
			data := make([]float64, 20000)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			if err := est.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			if est.Count() != int64(len(data)) {
				t.Fatalf("count %d", est.Count())
			}
			st := est.EstimatorStats()
			if st.Backend != b || st.Count != est.Count() || st.MemoryElements <= 0 ||
				st.HeldElements <= 0 || st.HeldElements > st.MemoryElements {
				t.Fatalf("stats %+v", st)
			}
			bound, ok := est.ErrorBound()
			if !ok || bound < 0 {
				t.Fatalf("bound %v ok=%v", bound, ok)
			}
			phis := []float64{0, 0.25, 0.5, 0.75, 1}
			vals, err := est.Quantiles(phis)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := validate.Evaluate(string(b), data, phis, vals)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range rep.Results {
				if float64(q.RankError) > bound {
					t.Errorf("phi=%v rank error %d exceeds own bound %v", q.Phi, q.RankError, bound)
				}
			}

			// Snapshot, restore, and keep both running on identical input.
			blob, err := est.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewEstimator(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				v := rng.Float64()
				if err := est.Add(v); err != nil {
					t.Fatal(err)
				}
				if err := restored.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			b1, _ := est.MarshalBinary()
			b2, _ := restored.MarshalBinary()
			if !bytes.Equal(b1, b2) {
				t.Fatal("restored estimator diverged from original")
			}

			// Absorb folds same-backend estimators and rejects foreign ones.
			other, err := NewEstimator(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := other.AddBatch([]float64{10, 20, 30}); err != nil {
				t.Fatal(err)
			}
			before := est.Count()
			if err := est.Absorb(other); err != nil {
				t.Fatal(err)
			}
			if est.Count() != before+3 {
				t.Fatalf("absorb count %d, want %d", est.Count(), before+3)
			}
			if err := est.Absorb(nil); err != nil {
				t.Fatal(err)
			}
			foreign := pickForeign(t, b, cfg)
			if err := est.Absorb(foreign); err == nil {
				t.Fatal("foreign backend absorbed")
			}

			if err := est.Reset(); err != nil {
				t.Fatal(err)
			}
			if est.Count() != 0 {
				t.Fatal("Reset kept data")
			}
			if est.Describe() == "" {
				t.Fatal("empty Describe")
			}
		})
	}
}

// pickForeign returns an estimator of a different backend than b.
func pickForeign(t *testing.T, b Backend, cfg Config) Estimator {
	t.Helper()
	fb := BackendKLL
	if b == BackendKLL {
		fb = BackendWeighted
	}
	e, err := NewEstimator(fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Add(1); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWeightedUnitMatchesMRL is the differential contract between the two
// deterministic backends: on an identical unit-weight stream, the weighted
// summary and the MRL sketch must agree within the sum of their own
// bounds — both are scored against the same exact targets, so any pair of
// answers can differ by at most bound(a) + bound(b) ranks.
func TestWeightedUnitMatchesMRL(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 40000
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64() * 100
	}
	mrl, err := New(Config{Epsilon: 0.01, N: n})
	if err != nil {
		t.Fatal(err)
	}
	wgt, err := NewWeighted(Config{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := mrl.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := wgt.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	phis := []float64{0.01, 0.1, 0.5, 0.9, 0.99}
	mv, err := mrl.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := wgt.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := mrl.ErrorBound()
	wb, _ := wgt.ErrorBound()
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for i, phi := range phis {
		rm := rankOf(sorted, mv[i])
		rw := rankOf(sorted, wv[i])
		if d := math.Abs(float64(rm - rw)); d > mb+wb {
			t.Errorf("phi=%v: backends disagree by %v ranks, summed bounds %v", phi, d, mb+wb)
		}
	}
}

// TestWeightedIntegerMatchesRepetitionMRL checks weighted ingest against
// the ground-truth semantics simulated on MRL: (v, w) with integer w into
// the weighted backend vs v repeated w times into MRL. Answers must agree
// within summed bounds on the expanded stream.
func TestWeightedIntegerMatchesRepetitionMRL(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	wgt, err := NewWeighted(Config{Epsilon: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	var expanded []float64
	for i := 0; i < 8000; i++ {
		v := rng.Float64() * 1000
		w := 1 + rng.Intn(6)
		if err := wgt.AddWeighted(v, float64(w)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < w; j++ {
			expanded = append(expanded, v)
		}
	}
	mrl, err := New(Config{Epsilon: 0.005, N: int64(len(expanded))})
	if err != nil {
		t.Fatal(err)
	}
	if err := mrl.AddBatch(expanded); err != nil {
		t.Fatal(err)
	}
	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	wv, err := wgt.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := mrl.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := wgt.ErrorBound()
	mb, _ := mrl.ErrorBound()
	sorted := append([]float64(nil), expanded...)
	sort.Float64s(sorted)
	for i, phi := range phis {
		rw := rankOf(sorted, wv[i])
		rm := rankOf(sorted, mv[i])
		if d := math.Abs(float64(rw - rm)); d > wb+mb {
			t.Errorf("phi=%v: weighted ingest disagrees with repetition by %v ranks (bounds %v+%v)",
				phi, d, wb, mb)
		}
	}
}

// rankOf returns the highest 1-based rank of v in sorted data (the number
// of elements <= v), i.e. a canonical point inside v's occupied interval.
func rankOf(sorted []float64, v float64) int64 {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo)
}
