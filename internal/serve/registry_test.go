package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mrl/internal/core"
	"mrl/internal/params"
	"mrl/quantile"
)

func testConfig() Config {
	return Config{Epsilon: 0.01, N: 100_000, Windows: 3, PerWindow: 20_000}
}

func TestRegistryConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero":          {},
		"bad epsilon":   {Epsilon: 2, N: 1000},
		"bad n":         {Epsilon: 0.01, N: 0},
		"window no cap": {Epsilon: 0.01, N: 1000, Windows: 3},
	} {
		if _, err := NewRegistry(cfg); err == nil {
			t.Errorf("%s config accepted: %+v", name, cfg)
		}
	}
	if _, err := NewRegistry(testConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestStatusHeldElements: /metricsz reports the buffer elements a metric
// has allocated beside its provisioned b*k. A metric holding one value
// holds one buffer array in each sketch: the all-time summary's and the
// filling window's.
func TestStatusHeldElements(t *testing.T) {
	cfg := testConfig()
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, reg, Options{})
	if err := reg.Ingest("m", []float64{42}); err != nil {
		t.Fatal(err)
	}
	all, err := params.Optimize(core.PolicyNew, cfg.Epsilon, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	win, err := params.OptimizeNew(cfg.Epsilon, cfg.PerWindow)
	if err != nil {
		t.Fatal(err)
	}
	st := metricsz(t, srv).Metrics[0]
	if st.Window == nil || st.Window.HeldElements != int64(win.K) {
		t.Fatalf("window status %+v, want heldElements of one window buffer (%d)", st.Window, win.K)
	}
	if want := int64(all.K + win.K); st.HeldElements != want {
		t.Fatalf("heldElements = %d, want one buffer per sketch (%d)", st.HeldElements, want)
	}
	if want := all.Memory() + win.Memory(); st.MemoryElements != want {
		t.Fatalf("memoryElements = %d, want the provisioned b*k of both sketches (%d)", st.MemoryElements, want)
	}
}

func TestRegistryMetricNames(t *testing.T) {
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "ctrl\x01char", strings.Repeat("x", 129)} {
		if err := reg.Ingest(bad, []float64{1}); !errors.Is(err, ErrInvalidMetricName) {
			t.Errorf("name %q: err = %v, want ErrInvalidMetricName", bad, err)
		}
	}
	if err := reg.Ingest("ok.metric-1", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "ok.metric-1" {
		t.Fatalf("Names = %v", got)
	}
}

func TestRegistryIngestAllOrNothing(t *testing.T) {
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest("m", []float64{1, 2, math.NaN(), 4}); !errors.Is(err, ErrNaN) {
		t.Fatalf("NaN batch: err = %v", err)
	}
	// The metric exists (created before validation) but consumed nothing —
	// neither the all-time sketch nor the window ring.
	st := reg.Status()
	if len(st) != 1 || st[0].Count != 0 || st[0].Window.Count != 0 {
		t.Fatalf("NaN batch partially consumed: %+v", st)
	}
	// Empty batches are accepted (and counted) but move nothing; the
	// rejected NaN batch is not counted at all.
	if err := reg.Ingest("m", nil); err != nil {
		t.Fatal(err)
	}
	st = reg.Status()
	if st[0].IngestBatches != 1 || st[0].IngestedValues != 0 {
		t.Fatalf("accounting after empty batch: %+v", st[0])
	}
}

func TestRegistryQuantilesAgreeWithOracle(t *testing.T) {
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := permutation(30_000)
	for off := 0; off < len(data); off += 5000 {
		if err := reg.Ingest("m", data[off:off+5000]); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	phis := []float64{0.1, 0.5, 0.9}
	for _, windowed := range []bool{false, true} {
		res, err := reg.Quantiles("m", phis, windowed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(len(data)) {
			t.Fatalf("windowed=%v: count %d", windowed, res.Count)
		}
		checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, "direct")
	}
}

func TestRegistryQueryErrors(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000}) // no windowing
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Quantiles("ghost", []float64{0.5}, false); !errors.Is(err, ErrUnknownMetric) {
		t.Errorf("unknown metric: %v", err)
	}
	if err := reg.Ensure("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Quantiles("m", []float64{0.5}, false); !errors.Is(err, quantile.ErrEmpty) {
		t.Errorf("empty metric: %v", err)
	}
	if _, err := reg.Quantiles("m", []float64{0.5}, true); !errors.Is(err, ErrWindowingDisabled) {
		t.Errorf("windowed query without windows: %v", err)
	}
	if err := reg.Rotate("m"); !errors.Is(err, ErrWindowingDisabled) {
		t.Errorf("rotate without windows: %v", err)
	}
	if err := reg.Rotate("ghost"); !errors.Is(err, ErrUnknownMetric) {
		t.Errorf("rotate unknown: %v", err)
	}
	// Windowed metric: empty ring answers ErrEmpty too.
	reg2, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.Ensure("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Quantiles("w", []float64{0.5}, true); !errors.Is(err, quantile.ErrEmpty) {
		t.Errorf("empty ring: %v", err)
	}
}

func TestRegistryRotateAllSkipsAndEvicts(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 100_000, Windows: 2, PerWindow: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := reg.Ingest(name, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	rotated, err := reg.RotateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated) != 2 {
		t.Fatalf("rotated %v", rotated)
	}
	// Second and third rotation of "a": the ring wraps and the original
	// window ages out, but all-time keeps it.
	for i := 0; i < 2; i++ {
		if err := reg.Rotate("a"); err != nil {
			t.Fatal(err)
		}
	}
	st := reg.Status()[0]
	if st.Name != "a" || st.Window.Count != 0 || st.Count != 3 {
		t.Fatalf("after eviction: %+v", st)
	}
	if st.Window.Rotations != 3 {
		t.Fatalf("rotations = %d", st.Window.Rotations)
	}
}

// TestMetricCreationCostFlat: creating a metric costs the same whatever
// the registry already holds. A copy-on-write map copies every existing
// entry per creation, so the 10,000 creations after the first 10,000
// allocate several times what the first 10,000 do; one insert each keeps
// the two halves level.
func TestMetricCreationCostFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	reg, err := NewRegistry(Config{Epsilon: 0.05, N: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const half = 10_000
	create := func(from int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := from; i < from+half; i++ {
			if err := reg.Ensure(fmt.Sprintf("m%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := create(0), create(half)
	if reg.Len() != 2*half {
		t.Fatalf("Len = %d, want %d", reg.Len(), 2*half)
	}
	t.Logf("per creation: %d B over metrics 0-%d, %d B over %d-%d", first/half, half, second/half, half, 2*half)
	if float64(second) > 1.5*float64(first) {
		t.Fatalf("creations %d-%d allocated %d B, over 1.5x the %d B of the first %d", half, 2*half, second, first, half)
	}
}
