package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mrl/internal/faultfs"
	"mrl/internal/wal"
)

// benchRegistry provisions a small registry suitable for benchmark loops.
func benchRegistry(b *testing.B) *Registry {
	b.Helper()
	reg, err := NewRegistry(Config{Epsilon: 0.001, N: 50_000_000, Windows: 3, PerWindow: 1_000_000})
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

// benchServer wraps the registry in a Server without WAL or checkpointing,
// isolating the HTTP decode + registry ingest cost.
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := New(benchRegistry(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchIngestServer is benchServer on a windowless registry: the ingest
// benchmarks compare the JSON and binary carriers, so the per-value window
// ring cost — identical on both sides — would only dilute the ratio under
// measurement.
func benchIngestServer(b *testing.B) *Server {
	b.Helper()
	reg, err := NewRegistry(Config{Epsilon: 0.001, N: 50_000_000})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(reg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// ndjsonBody renders objects NDJSON batches of values each as one ingest body.
func ndjsonBody(objects, values int) string {
	var sb strings.Builder
	for o := 0; o < objects; o++ {
		sb.WriteString(`{"metric":"lat","values":[`)
		for i := 0; i < values; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d.%d", (o*values+i)%1000, i%10)
		}
		sb.WriteString("]}\n")
	}
	return sb.String()
}

// BenchmarkHTTPIngest measures the full POST /ingest hot path: body decode
// (single object and NDJSON concatenation), registry routing, and sketch
// ingestion. Bytes/op is the request body size.
func BenchmarkHTTPIngest(b *testing.B) {
	for _, cfg := range []struct {
		name            string
		objects, values int
	}{
		{"obj=1/vals=128", 1, 128},
		{"obj=1/vals=4096", 1, 4096},
		{"obj=16/vals=256", 16, 256},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			srv := benchIngestServer(b)
			h := srv.Handler()
			body := ndjsonBody(cfg.objects, cfg.values)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/ingest", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != 200 {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}

// binBody renders the binary-protocol equivalent of ndjsonBody: one dict
// frame plus objects unsequenced batch frames of values each.
func binBody(objects, values int) []byte {
	body := AppendBinPrologueV2(nil)
	body = AppendDictFrame(body, 1, "lat", "")
	vs := make([]float64, values)
	for o := 0; o < objects; o++ {
		for i := range vs {
			vs[i] = float64((o*values+i)%1000) + float64(i%10)/10
		}
		body = AppendBatchFrame(body, 1, vs, nil)
	}
	return body
}

// BenchmarkHTTPIngestBinary is BenchmarkHTTPIngest over POST /ingest/bin
// with the same value counts per request: the ns/op ratio between the two
// is the values/sec speedup the binary frame decode buys at identical
// durability settings (neither path runs a WAL here).
func BenchmarkHTTPIngestBinary(b *testing.B) {
	for _, cfg := range []struct {
		name            string
		objects, values int
	}{
		{"obj=1/vals=128", 1, 128},
		{"obj=1/vals=4096", 1, 4096},
		{"obj=16/vals=256", 16, 256},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			srv := benchIngestServer(b)
			h := srv.Handler()
			body := binBody(cfg.objects, cfg.values)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/ingest/bin", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != 200 {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures cold-start recovery time: each iteration
// is one `New` against a multi-segment, multi-metric WAL with no checkpoint,
// so the whole log replays — segment scan, frame decode, dedup, and the
// sharded replay fan-out through the apply pool. ns/op is the restart time a
// crashed daemon pays before it serves again.
func BenchmarkRecoveryReplay(b *testing.B) {
	mem := faultfs.NewMem()
	cfg := Config{Epsilon: 0.001, N: 50_000_000}
	opts := Options{WALDir: "/wal", WALSync: wal.SyncEveryBatch, WALSegmentBytes: 1 << 20, FS: mem}
	seedReg, err := NewRegistry(cfg)
	if err != nil {
		b.Fatal(err)
	}
	seedSrv, err := New(seedReg, opts)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = float64(i%1000) + float64(i%7)/10
	}
	const batches = 512
	for i := 0; i < batches; i++ {
		if err := seedSrv.ingest(fmt.Sprintf("m%d", i%8), vs, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	// Abandoned without Shutdown, like a crash: no checkpoint exists, so
	// every recovery below replays the full log.
	seedReg.drainAll()
	seedReg.Close()
	b.SetBytes(int64(batches * len(vs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := NewRegistry(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(reg, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
		b.StartTimer()
	}
}

// BenchmarkHTTPQuantile measures the GET /quantile read path on a warm
// metric — the repeated-dashboard-poll shape the query cache is for.
func BenchmarkHTTPQuantile(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	seed := httptest.NewRequest("POST", "/ingest", strings.NewReader(ndjsonBody(8, 4096)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, seed)
	if w.Code != 200 {
		b.Fatalf("seed ingest: status %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/quantile?metric=lat&phi=0.5,0.99,0.999", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}
