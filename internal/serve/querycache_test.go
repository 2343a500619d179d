package serve

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mrl/quantile"
)

func newCacheTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 1_000_000, Windows: 3, PerWindow: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func do(t *testing.T, srv *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req = httptest.NewRequest(method, target, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	return w
}

func metricsz(t *testing.T, srv *Server) metricszResponse {
	t.Helper()
	w := do(t, srv, "GET", "/metricsz", "")
	if w.Code != 200 {
		t.Fatalf("GET /metricsz: status %d: %s", w.Code, w.Body.String())
	}
	var out metricszResponse
	if err := json.NewDecoder(w.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGenerationMovesUnderMetricLock: a cached answer is stamped with the
// generation its query read before taking the metric's lock, so every
// mutation must move the generation while holding that lock. Otherwise a
// query can read the new generation, take the lock before the writer, and
// cache the pre-write answer under the post-write stamp, serving it to every
// later query, including queries sent after the write was acked. With the
// lock held here, a write, a rotation and a checkpoint restore must all
// wait without moving the generation.
func TestGenerationMovesUnderMetricLock(t *testing.T) {
	cfg := Config{Epsilon: 0.01, N: 1_000_000, Windows: 3, PerWindow: 100_000}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Ingest("lat", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	restored, err := quantile.NewEstimator(quantile.BackendMRL, quantile.Config{Epsilon: cfg.Epsilon, N: cfg.N, Seed: metricSeed("lat")})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.AddBatch([]float64{7}); err != nil {
		t.Fatal(err)
	}
	m := reg.get("lat")

	m.mu.Lock()
	before := m.gen.Load()
	mutations := []func() error{
		func() error { return reg.Ingest("lat", []float64{4, 5, 6}) },
		func() error { return reg.Rotate("lat") },
		func() error { return m.restore(restored) },
	}
	errs := make([]error, len(mutations))
	var wg sync.WaitGroup
	for i, mutate := range mutations {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = mutate()
		}()
	}
	// The mutations cannot finish while the lock is held; give them time to
	// reach it and watch the generation meanwhile.
	moved := false
	for deadline := time.Now().Add(100 * time.Millisecond); !moved && time.Now().Before(deadline); runtime.Gosched() {
		moved = m.gen.Load() != before
	}
	m.mu.Unlock()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if moved {
		t.Fatal("a mutation moved the query-cache generation before taking the metric's lock")
	}
	if got := m.gen.Load(); got != before+uint64(len(mutations)) {
		t.Fatalf("generation %d after %d mutations from %d", got, len(mutations), before)
	}
}

// TestQueryCacheHitsAndInvalidation drives the full HTTP loop: repeated
// queries hit the cache, any ingest or rotation invalidates it, and the
// /metricsz counters tell the story.
func TestQueryCacheHitsAndInvalidation(t *testing.T) {
	srv := newCacheTestServer(t, Options{})
	if w := do(t, srv, "POST", "/ingest", `{"metric":"lat","values":[1,2,3,4,5,6,7,8,9,10]}`); w.Code != 200 {
		t.Fatalf("ingest: status %d: %s", w.Code, w.Body.String())
	}

	query := func() quantileResponse {
		w := do(t, srv, "GET", "/quantile?metric=lat&phi=0.5,0.9", "")
		if w.Code != 200 {
			t.Fatalf("quantile: status %d: %s", w.Code, w.Body.String())
		}
		var out quantileResponse
		if err := json.NewDecoder(w.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := query()
	st := metricsz(t, srv)
	if st.QueryCache.Misses != 1 || st.QueryCache.Hits != 0 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0/1", st.QueryCache.Hits, st.QueryCache.Misses)
	}
	if st.QueryCache.Entries != 1 {
		t.Fatalf("after first query: %d cache entries, want 1", st.QueryCache.Entries)
	}

	second := query()
	if second.Values[0] != first.Values[0] || second.Count != first.Count {
		t.Fatalf("cached answer diverged: %+v vs %+v", second, first)
	}
	if st := metricsz(t, srv); st.QueryCache.Hits != 1 || st.QueryCache.Misses != 1 {
		t.Fatalf("after repeat query: hits=%d misses=%d, want 1/1", st.QueryCache.Hits, st.QueryCache.Misses)
	}

	// Ingest invalidates: the next query must recompute and see the new data.
	if w := do(t, srv, "POST", "/ingest", `{"metric":"lat","values":[100,100,100,100,100,100,100,100,100,100]}`); w.Code != 200 {
		t.Fatalf("second ingest: status %d: %s", w.Code, w.Body.String())
	}
	after := query()
	if after.Count != 20 {
		t.Fatalf("post-ingest query served stale count %d, want 20", after.Count)
	}
	if after.Values[1] != 100 {
		t.Fatalf("post-ingest p90 = %v, want 100 (stale cache?)", after.Values[1])
	}
	if st := metricsz(t, srv); st.QueryCache.Misses != 2 {
		t.Fatalf("ingest did not invalidate: misses=%d, want 2", st.QueryCache.Misses)
	}

	// A distinct phi list is its own entry.
	if w := do(t, srv, "GET", "/quantile?metric=lat&phi=0.25", ""); w.Code != 200 {
		t.Fatalf("quantile: status %d", w.Code)
	}
	if st := metricsz(t, srv); st.QueryCache.Misses != 3 || st.QueryCache.Entries != 2 {
		t.Fatalf("distinct phi list: misses=%d entries=%d, want 3 and 2", st.QueryCache.Misses, st.QueryCache.Entries)
	}
}

// TestQueryCacheWindowedRotation pins the windowed read path: rotation must
// invalidate cached windowed answers (the ring contents changed even though
// no new value arrived).
func TestQueryCacheWindowedRotation(t *testing.T) {
	srv := newCacheTestServer(t, Options{})
	if w := do(t, srv, "POST", "/ingest", `{"metric":"lat","values":[1,2,3,4,5,6,7,8,9,10]}`); w.Code != 200 {
		t.Fatalf("ingest: status %d: %s", w.Code, w.Body.String())
	}
	windowed := func() quantileResponse {
		w := do(t, srv, "GET", "/quantile?metric=lat&phi=0.5&window=true", "")
		if w.Code != 200 {
			t.Fatalf("windowed quantile: status %d: %s", w.Code, w.Body.String())
		}
		var out quantileResponse
		if err := json.NewDecoder(w.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := windowed()
	if before.Count != 10 {
		t.Fatalf("windowed count %d, want 10", before.Count)
	}
	windowed() // cache hit
	st := metricsz(t, srv)
	if st.QueryCache.Hits != 1 {
		t.Fatalf("windowed repeat: hits=%d, want 1", st.QueryCache.Hits)
	}

	// Rotate until the original window is evicted; each rotation bumps the
	// generation, so no query may ever see the cached pre-rotation answer.
	for i := 0; i < 3; i++ {
		if w := do(t, srv, "POST", "/rotate?metric=lat", ""); w.Code != 200 {
			t.Fatalf("rotate: status %d: %s", w.Code, w.Body.String())
		}
	}
	w := do(t, srv, "GET", "/quantile?metric=lat&phi=0.5&window=true", "")
	if w.Code == 200 {
		var out quantileResponse
		if err := json.NewDecoder(w.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Count == before.Count {
			t.Fatalf("rotation did not invalidate the windowed cache: still count %d", out.Count)
		}
	}
	// (A 404/empty answer is fine too: all windows are empty after eviction.)
}

// TestPprofMounting checks both sides of the opt-in: with EnablePprof the
// profile index serves 200 and /metricsz advertises it; without it the
// routes are absent.
func TestPprofMounting(t *testing.T) {
	on := newCacheTestServer(t, Options{EnablePprof: true})
	if w := do(t, on, "GET", "/debug/pprof/", ""); w.Code != 200 {
		t.Fatalf("pprof enabled: GET /debug/pprof/ status %d", w.Code)
	}
	if st := metricsz(t, on); !st.PprofEnabled {
		t.Fatal("pprof enabled but /metricsz reports pprofEnabled=false")
	}

	off := newCacheTestServer(t, Options{})
	if w := do(t, off, "GET", "/debug/pprof/", ""); w.Code != 404 {
		t.Fatalf("pprof disabled: GET /debug/pprof/ status %d, want 404", w.Code)
	}
	if st := metricsz(t, off); st.PprofEnabled {
		t.Fatal("pprof disabled but /metricsz reports pprofEnabled=true")
	}
}
