package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mrl/quantile"
)

func TestStatusFor(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"unknown-metric", ErrUnknownMetric, http.StatusNotFound},
		{"wrapped-unknown-metric", fmt.Errorf("%w: %q", ErrUnknownMetric, "x"), http.StatusNotFound},
		{"empty-sketch", quantile.ErrEmpty, http.StatusNotFound},
		{"invalid-name", ErrInvalidMetricName, http.StatusBadRequest},
		{"windowing-disabled", ErrWindowingDisabled, http.StatusBadRequest},
		{"nan", fmt.Errorf("%w (element 3)", ErrNaN), http.StatusBadRequest},
		{"degraded", fmt.Errorf("%w (last error: disk)", ErrDegraded), http.StatusTooManyRequests},
		{"unavailable", fmt.Errorf("%w: enospc", ErrUnavailable), http.StatusServiceUnavailable},
		{"anything-else", errors.New("boom"), http.StatusInternalServerError},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("%s: statusFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParsePhis(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want []float64 // nil means an error is expected
	}{
		{"0.5", []float64{0.5}},
		{"0,0.5,1", []float64{0, 0.5, 1}},
		{" 0.25 , 0.75 ", []float64{0.25, 0.75}},
		{"0.5,0.99,0.999", []float64{0.5, 0.99, 0.999}},
		{"", nil},
		{",", nil},
		{"0.5,", nil},
		{"half", nil},
		{"0.5;0.9", nil},
		{"NaN", nil},
		{"-0.1", nil},
		{"1.1", nil},
		{"1e300", nil},
	} {
		got, err := ParsePhis(tc.raw)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParsePhis(%q) = %v, want error", tc.raw, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePhis(%q): %v", tc.raw, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePhis(%q) = %v, want %v", tc.raw, got, tc.want)
		}
	}
}

// TestIngestErrorPaths pins every rejection the ingest endpoint can issue,
// on a server with a deliberately tiny body cap so the 413 path is cheap to
// reach.
func TestIngestErrorPaths(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, reg, Options{MaxIngestBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"ok", `{"metric":"m","values":[1,2,3]}`, http.StatusOK},
		{"ok-ndjson", `{"metric":"m","values":[1]}` + "\n" + `{"metric":"m","values":[2]}`, http.StatusOK},
		{"empty-body", ``, http.StatusBadRequest},
		{"malformed-json", `{"metric":"m","values":[1,`, http.StatusBadRequest},
		{"not-an-object", `[1,2,3]`, http.StatusBadRequest},
		{"nan-batch", `{"metric":"m","values":[1,"NaN",3]}`, http.StatusBadRequest},
		{"empty-metric-name", `{"metric":"","values":[1]}`, http.StatusBadRequest},
		{"whitespace-metric-name", `{"metric":"a b","values":[1]}`, http.StatusBadRequest},
		{"oversized-metric-name", `{"metric":"` + strings.Repeat("x", 129) + `","values":[1]}`, http.StatusBadRequest},
		{"oversized-body", `{"metric":"m","values":[` + strings.Repeat("1,", 200) + `1]}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBody(t, ts.URL+"/ingest", tc.body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	// A rejected batch must not be half-applied: the NaN batch above names
	// the same metric the accepted ones did.
	res, err := reg.Quantiles("m", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 {
		t.Fatalf("metric holds %d values after rejections, want the 5 accepted", res.Count)
	}

	// Queries against metrics that never existed stay 404, and malformed
	// phi lists stay 400, regardless of ingest traffic.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/quantile?metric=never&phi=0.5", http.StatusNotFound},
		{"/quantile?metric=m&phi=bogus", http.StatusBadRequest},
		{"/quantile?metric=m&phi=0.5&window=perhaps", http.StatusBadRequest},
		{"/quantile?metric=m&phi=0.5&window=true", http.StatusBadRequest}, // windowing disabled
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}
