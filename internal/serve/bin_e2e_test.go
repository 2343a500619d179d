package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// binClient is a minimal test-side client for the persistent-connection
// binary ingest protocol.
type binClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialBin(t *testing.T, addr string) *binClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &binClient{t: t, conn: conn, br: bufio.NewReader(conn)}
	if _, err := conn.Write(AppendBinPrologueV2(nil)); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *binClient) close() { _ = c.conn.Close() }

func (c *binClient) dict(id uint32, name, backend string) {
	c.t.Helper()
	c.buf = AppendDictFrame(c.buf[:0], id, name, backend)
	if _, err := c.conn.Write(c.buf); err != nil {
		c.t.Fatal(err)
	}
}

// batch sends one batch frame and reads its ack, returning the accepted
// count and the error message (empty on success).
func (c *binClient) batch(id uint32, vs, ws []float64) (uint32, string) {
	c.t.Helper()
	c.buf = AppendBatchFrame(c.buf[:0], id, vs, ws)
	if _, err := c.conn.Write(c.buf); err != nil {
		c.t.Fatal(err)
	}
	ack := c.readAck()
	if ack.status != ackOK {
		return ack.accepted, ack.msg
	}
	return ack.accepted, ""
}

func (c *binClient) readAck() binParsed {
	c.t.Helper()
	var hdr [binFrameHeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		c.t.Fatalf("reading ack header: %v", err)
	}
	plen, crc, err := parseBinFrameHeader(hdr[:])
	if err != nil {
		c.t.Fatal(err)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		c.t.Fatal(err)
	}
	if crc32.Checksum(payload, castagnoliBin) != crc {
		c.t.Fatal("ack CRC mismatch")
	}
	fr, err := parseBinPayload(payload, nil, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if fr.typ != binFrameAck {
		c.t.Fatalf("expected ack frame, got type %d", fr.typ)
	}
	return fr
}

// binStreamBody renders a complete POST /ingest/bin body for one metric.
func binStreamBody(id uint32, name, backend string, batches [][2][]float64) []byte {
	body := AppendBinPrologueV2(nil)
	body = AppendDictFrame(body, id, name, backend)
	for _, b := range batches {
		body = AppendBatchFrame(body, id, b[0], b[1])
	}
	return body
}

// TestBinaryJSONDifferentialBitIdentical drives the same batch sequence
// into two fresh registries — one through POST /ingest (JSON), one through
// POST /ingest/bin — for all three backends, weights included, and requires
// the resulting sketch state to be BIT-identical: the encoded checkpoints
// must match byte for byte. The binary path is a transport, not a different
// estimator.
func TestBinaryJSONDifferentialBitIdentical(t *testing.T) {
	cfg := Config{Epsilon: 0.01, N: 100_000}
	data := permutation(6000)
	for _, backend := range []string{"mrl", "kll", "weighted"} {
		t.Run(backend, func(t *testing.T) {
			regJSON, err := NewRegistry(cfg)
			if err != nil {
				t.Fatal(err)
			}
			regBin, err := NewRegistry(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srvJSON := httptest.NewServer(mustNew(t, regJSON, Options{}).Handler())
			defer srvJSON.Close()
			srvBin := httptest.NewServer(mustNew(t, regBin, Options{}).Handler())
			defer srvBin.Close()

			// Same metric name on both sides: per-metric seeds derive from the
			// name, so KLL's compaction coin flips match too.
			const metric = "diff"
			var batches [][2][]float64
			for off, i := 0, 0; off < len(data); i++ {
				n := 1 + (i*97)%211
				if off+n > len(data) {
					n = len(data) - off
				}
				vs := data[off : off+n]
				var ws []float64
				if backend == "weighted" {
					ws = make([]float64, n)
					for j := range ws {
						ws[j] = float64((off+j)%5 + 1)
					}
				}
				batches = append(batches, [2][]float64{vs, ws})
				off += n
			}

			// JSON side: one object per batch.
			for _, b := range batches {
				req := ingestRequest{Metric: metric, Backend: backend, Values: b[0], Weights: b[1]}
				blob, _ := json.Marshal(req)
				resp := postBody(t, srvJSON.URL+"/ingest", string(blob))
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					t.Fatalf("JSON ingest: status %d: %s", resp.StatusCode, body)
				}
				resp.Body.Close()
			}
			// Binary side: one body carrying a dict frame and every batch.
			body := binStreamBody(1, metric, backend, batches)
			resp, err := http.Post(srvBin.URL+"/ingest/bin", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("binary ingest: status %d: %s", resp.StatusCode, b)
			}
			var ir IngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if ir.Accepted != int64(len(data)) || ir.Batches != len(batches) {
				t.Fatalf("binary ingest accepted %d/%d batches %d/%d",
					ir.Accepted, len(data), ir.Batches, len(batches))
			}

			ckJSON, err := regJSON.encodeCheckpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			ckBin, err := regBin.encodeCheckpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckJSON, ckBin) {
				t.Fatalf("backend %s: JSON and binary ingest produced different sketch state (%d vs %d checkpoint bytes)",
					backend, len(ckJSON), len(ckBin))
			}
		})
	}
}

// TestBinaryTCPMixedProtocolRace hammers ONE metric from concurrent JSON
// POSTs and concurrent persistent binary TCP connections at once (run under
// -race), then verifies the count and that every served quantile stays
// within its certified bound against the exact oracle.
func TestBinaryTCPMixedProtocolRace(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, reg, Options{})
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeBinary(ln) }()

	const writers = 8 // half JSON, half binary
	const metric = "mixed"
	data := permutation(40_000)
	per := len(data) / writers
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		part := data[w*per : (w+1)*per]
		wg.Add(1)
		if w%2 == 0 {
			go func(part []float64) {
				defer wg.Done()
				for off := 0; off < len(part); off += 500 {
					end := off + 500
					if end > len(part) {
						end = len(part)
					}
					resp := postBody(t, httpSrv.URL+"/ingest", ingestBody(metric, part[off:end]))
					if resp.StatusCode != http.StatusOK {
						t.Errorf("JSON ingest status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}(part)
		} else {
			go func(part []float64) {
				defer wg.Done()
				c := dialBin(t, ln.Addr().String())
				defer c.close()
				c.dict(42, metric, "")
				for off := 0; off < len(part); off += 500 {
					end := off + 500
					if end > len(part) {
						end = len(part)
					}
					accepted, msg := c.batch(42, part[off:end], nil)
					if msg != "" {
						t.Errorf("binary ingest: %s", msg)
						return
					}
					if int(accepted) != end-off {
						t.Errorf("binary ingest accepted %d, want %d", accepted, end-off)
					}
				}
			}(part)
		}
	}
	wg.Wait()

	phis := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	res := getQuantiles(t, httpSrv.URL, metric, phis, false)
	if res.Count != int64(writers*per) {
		t.Fatalf("count %d, want %d", res.Count, writers*per)
	}
	sorted := append([]float64(nil), data[:writers*per]...)
	sort.Float64s(sorted)
	checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, "mixed-protocol")

	// A rejected batch is fatal for its stream: a batch against an
	// uninterned id draws an error ack and the server closes the stream.
	// A fresh stream still lands its batches.
	c := dialBin(t, ln.Addr().String())
	defer c.close()
	c.dict(1, metric, "")
	if _, msg := c.batch(99, []float64{1}, nil); !strings.Contains(msg, "unknown metric id") {
		t.Fatalf("uninterned id: %q", msg)
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("stream survived a rejected batch: %v", err)
	}
	c2 := dialBin(t, ln.Addr().String())
	defer c2.close()
	c2.dict(1, metric, "")
	if _, msg := c2.batch(1, []float64{1, 2}, nil); msg != "" {
		t.Fatalf("batch on a fresh stream: %q", msg)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeBinary: %v", err)
	}
}

// TestBinaryIngestHTTPErrors exercises the HTTP carrier's failure taxonomy.
func TestBinaryIngestHTTPErrors(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mustNew(t, reg, Options{}).Handler())
	defer srv.Close()
	post := func(body []byte) *http.Response {
		resp, err := http.Post(srv.URL+"/ingest/bin", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post([]byte("not a prologue")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prologue: %d", resp.StatusCode)
	}
	if resp := post(AppendBinPrologueV2(nil)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no batch frames: %d", resp.StatusCode)
	}
	// A version-1 prologue is refused before any frame is applied.
	v1 := binStreamBody(1, "v1", "", [][2][]float64{{[]float64{1}, nil}})
	v1[4] = 1
	if resp := post(v1); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("v1 prologue: %d", resp.StatusCode)
	}
	if reg.Len() != 0 {
		t.Fatalf("v1 body created %d metrics", reg.Len())
	}
	// Batch against an id no dict frame interned.
	body := AppendBinPrologueV2(nil)
	body = AppendBatchFrame(body, 5, []float64{1}, nil)
	if resp := post(body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown id: %d", resp.StatusCode)
	}
	// Corrupt CRC.
	body = binStreamBody(1, "m", "", [][2][]float64{{[]float64{1, 2}, nil}})
	body[len(body)-1] ^= 0xff
	if resp := post(body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: %d", resp.StatusCode)
	}
	// Weighted batch into a non-weighted metric.
	body = binStreamBody(1, "m2", "", [][2][]float64{{[]float64{1}, []float64{2}}})
	if resp := post(body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("weights without weighted backend: %d", resp.StatusCode)
	}
	// A weighted metric via the backend tag works end to end.
	body = binStreamBody(1, "w", "weighted", [][2][]float64{{[]float64{1, 2}, []float64{3, 4}}})
	if resp := post(body); resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted binary ingest: %d", resp.StatusCode)
	}
	if got := fmt.Sprint(reg.Backend("w")); got != "weighted" {
		t.Fatalf("backend %q", got)
	}
}
