package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mrl/internal/faultfs"
	"mrl/internal/faultnet"
)

// startBinServer brings up a server with a binary ingest listener and tears
// both down with the test. It returns the server, its registry, and the
// listener address.
func startBinServer(t *testing.T, opt Options) (*Server, *Registry, string) {
	t.Helper()
	reg, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeBinary(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if err := <-serveErr; err != nil && err.Error() != "serve: server is shut down" {
			t.Errorf("ServeBinary: %v", err)
		}
	})
	return s, reg, ln.Addr().String()
}

// rawBin is a frame-level test client for the v2 (sessioned) stream.
type rawBin struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// dialBinV2 opens a v2 stream, declares the session, and returns the client
// plus the high-water mark the sessionAck reported.
func dialBinV2(t *testing.T, addr string, sid uint64) (*rawBin, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	c := &rawBin{t: t, conn: conn, br: bufio.NewReader(conn)}
	buf := AppendBinPrologueV2(nil)
	buf = AppendSessionFrame(buf, sid)
	c.write(buf)
	fr := c.read()
	if fr.typ != binFrameSessionAck || fr.status != ackOK {
		t.Fatalf("session declare answered with type %d status %d (%s)", fr.typ, fr.status, fr.msg)
	}
	return c, fr.hw
}

func (c *rawBin) write(frame []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func (c *rawBin) read() binParsed {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := readBinReply(c.br)
	if err != nil {
		c.t.Fatalf("read reply: %v", err)
	}
	return fr
}

// mustCount fails unless the metric's all-time count is exactly want.
func mustCount(t *testing.T, reg *Registry, metric string, want int64) {
	t.Helper()
	res, err := reg.Quantiles(metric, []float64{0.5}, false)
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	if res.Count != want {
		t.Fatalf("count %d, want %d", res.Count, want)
	}
}

// waitForCount polls until the metric's count reaches want — for the spots
// where the server applies a batch whose ack the test deliberately lost.
func waitForCount(t *testing.T, reg *Registry, metric string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := reg.Quantiles(metric, []float64{0.5}, false)
		if err == nil && res.Count >= want {
			if res.Count > want {
				t.Fatalf("count overshot: %d, want %d", res.Count, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("count never reached %d (last err %v)", want, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBinSessionDedupRawFrames pins the exactly-once dedup at the frame
// level: a duplicate sequence number is acknowledged as accepted but applied
// only once, and a reconnecting session learns the durable high-water mark
// from its sessionAck.
func TestBinSessionDedupRawFrames(t *testing.T) {
	_, reg, addr := startBinServer(t, crashOptions(faultfs.NewMem()))
	const sid = 7

	c, hw := dialBinV2(t, addr, sid)
	if hw != 0 {
		t.Fatalf("fresh session reports high-water %d", hw)
	}
	buf := AppendDictFrame(nil, 1, "lat", "")
	buf = AppendBatchSeqFrame(buf, 1, 1, []float64{10, 20, 30}, nil)
	buf = AppendBatchSeqFrame(buf, 1, 1, []float64{10, 20, 30}, nil) // retry of seq 1
	buf = AppendBatchSeqFrame(buf, 1, 2, []float64{40, 50}, nil)
	c.write(buf)
	for i := 0; i < 3; i++ {
		if fr := c.read(); fr.typ != binFrameAck || fr.status != ackOK {
			t.Fatalf("ack %d: type %d status %d (%s)", i, fr.typ, fr.status, fr.msg)
		}
	}
	mustCount(t, reg, "lat", 5) // 3 + 2; the duplicate was acked, not applied

	// A second connection re-declaring the session sees everything applied.
	_, hw = dialBinV2(t, addr, sid)
	if hw != 2 {
		t.Fatalf("reconnect high-water %d, want 2", hw)
	}

	// A different session starts from its own zero mark.
	_, hw = dialBinV2(t, addr, sid+1)
	if hw != 0 {
		t.Fatalf("unrelated session inherited high-water %d", hw)
	}
}

// TestBinSessionProtocolErrors pins the fatal protocol misuses: a
// version-1 prologue, and a sequenced batch before any session frame. Both
// draw an error ack and a closed connection.
func TestBinSessionProtocolErrors(t *testing.T) {
	_, _, addr := startBinServer(t, crashOptions(faultfs.NewMem()))
	expectFatal := func(stream []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		fr, err := readBinReply(br)
		if err != nil {
			t.Fatalf("expected an error ack, got %v", err)
		}
		if fr.typ != binFrameAck || fr.status != ackBadRequest {
			t.Fatalf("type %d status %d (%s), want fatal bad-request ack", fr.typ, fr.status, fr.msg)
		}
		if _, err := readBinReply(br); err != io.EOF {
			t.Fatalf("stream survived a fatal error: %v", err)
		}
	}

	// A version-1 prologue.
	v1 := AppendBinPrologueV2(nil)
	v1[4] = 1
	v1 = AppendSessionFrame(v1, 9)
	expectFatal(v1)

	// Sequenced batch with no session declared.
	v2 := AppendBinPrologueV2(nil)
	v2 = AppendDictFrame(v2, 1, "lat", "")
	v2 = AppendBatchSeqFrame(v2, 1, 1, []float64{1}, nil)
	expectFatal(v2)
}

// TestBinClientAckLostConfirmedByHighWater is the v2 answer to the lost-ack
// ambiguity: the connection dies after a batch was written (and applied)
// but before its ack arrived. The reconnecting client must NOT resend — the
// sessionAck's high-water mark confirms the batch — and the value counts
// exactly once.
func TestBinClientAckLostConfirmedByHighWater(t *testing.T) {
	_, reg, addr := startBinServer(t, crashOptions(faultfs.NewMem()))
	in := faultnet.New(faultnet.Options{Seed: 1}) // quiet; only SeverAll is used

	client, err := NewBinClient(BinClientOptions{
		Addr:        addr,
		Dial:        in.Dialer(nil),
		Metric:      "lat",
		SessionID:   11,
		RetryMin:    time.Millisecond,
		RetryMax:    10 * time.Millisecond,
		AckTimeout:  time.Second,
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// MaxInflight 1 lets Send return with the batch written but its ack
	// unread; the server applies it and answers into the void.
	if err := client.Send([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitForCount(t, reg, "lat", 3)
	in.SeverAll()

	if err := client.Flush(); err != nil {
		t.Fatalf("flush after severed ack: %v", err)
	}
	st := client.Stats()
	if st.AckedBatches != 1 || st.AckedValues != 3 {
		t.Fatalf("stats %+v: want the batch confirmed via the high-water mark", st)
	}
	if st.SentBatches != 1 {
		t.Fatalf("batch resent %d times; the high-water mark should have confirmed it", st.SentBatches-1)
	}
	mustCount(t, reg, "lat", 3)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinIngestHTTPIdempotentRetry pins the HTTP carrier's share of the
// exactly-once contract: a retried POST /ingest/bin with a sessioned (v2)
// body reports the same accepted counts both times but applies the batches
// once.
func TestBinIngestHTTPIdempotentRetry(t *testing.T) {
	reg, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mustNew(t, reg, Options{}).Handler())
	defer srv.Close()

	body := AppendBinPrologueV2(nil)
	body = AppendSessionFrame(body, 21)
	body = AppendDictFrame(body, 1, "lat", "")
	body = AppendBatchSeqFrame(body, 1, 1, []float64{1, 2, 3}, nil)
	body = AppendBatchSeqFrame(body, 1, 2, []float64{4, 5}, nil)

	for attempt := 0; attempt < 2; attempt++ {
		resp, err := http.Post(srv.URL+"/ingest/bin", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("attempt %d: status %d: %s", attempt, resp.StatusCode, b)
		}
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ir.Accepted != 5 || ir.Batches != 2 {
			t.Fatalf("attempt %d: accepted %d batches %d, want 5/2", attempt, ir.Accepted, ir.Batches)
		}
	}
	mustCount(t, reg, "lat", 5)
}

// TestBinSessionMarksSurviveShutdown pins the durability of the dedup
// window across a graceful restart: the final checkpoint (format v4)
// carries the session high-water marks, so a client reconnecting to the
// next life replays nothing it already delivered.
func TestBinSessionMarksSurviveShutdown(t *testing.T) {
	mem := faultfs.NewMem()
	opt := crashOptions(mem)
	const sid = 77

	reg1, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(reg1, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s1.ServeBinary(ln1) }()

	c, _ := dialBinV2(t, ln1.Addr().String(), sid)
	buf := AppendDictFrame(nil, 1, "lat", "")
	for seq := uint64(1); seq <= 3; seq++ {
		buf = AppendBatchSeqFrame(buf, 1, seq, []float64{float64(seq), float64(seq) + 0.5}, nil)
	}
	c.write(buf)
	for i := 0; i < 3; i++ {
		if fr := c.read(); fr.typ != binFrameAck || fr.status != ackOK {
			t.Fatalf("ack %d: type %d status %d (%s)", i, fr.typ, fr.status, fr.msg)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeBinary: %v", err)
	}
	mem.Crash() // plain reboot: only durable state survives

	_, reg2, addr2 := startBinServer(t, opt)
	mustCount(t, reg2, "lat", 6)
	c2, hw := dialBinV2(t, addr2, sid)
	if hw != 3 {
		t.Fatalf("recovered high-water %d, want 3", hw)
	}
	// A straggling retry of an old batch is still deduplicated post-restart.
	buf = AppendDictFrame(nil, 1, "lat", "")
	buf = AppendBatchSeqFrame(buf, 1, 2, []float64{2, 2.5}, nil)
	c2.write(buf)
	if fr := c2.read(); fr.typ != binFrameAck || fr.status != ackOK {
		t.Fatalf("dup after restart: type %d status %d (%s)", fr.typ, fr.status, fr.msg)
	}
	mustCount(t, reg2, "lat", 6)
}

// TestBinListenerTimeouts pins the slow-loris defences on the persistent
// listener: an idle connection (no frame header) and a stalled mid-frame
// connection are both cut off, quickly, without an operator in the loop.
func TestBinListenerTimeouts(t *testing.T) {
	opt := Options{BinIdleTimeout: 100 * time.Millisecond, BinIOTimeout: 100 * time.Millisecond}
	_, _, addr := startBinServer(t, opt)

	expectClosed := func(label string, payload []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("%s: server never closed the connection: %v", label, err)
		}
		if waited := time.Since(start); waited > 3*time.Second {
			t.Fatalf("%s: connection held for %v despite the timeout", label, waited)
		}
	}

	// Idle: a prologue and then silence.
	expectClosed("idle", AppendBinPrologueV2(nil))

	// Slow loris: a frame header promising a payload that never arrives.
	frame := AppendBatchFrame(nil, 1, []float64{1, 2, 3, 4}, nil)
	stalled := append(AppendBinPrologueV2(nil), frame[:binFrameHeaderLen+8]...)
	expectClosed("mid-frame stall", stalled)
}

// TestCloseBinaryDuringInflightDecode shuts the server down while several
// connections are mid-stream (run under -race): decode scratch, ingest
// pool, and connection bookkeeping must tolerate Close racing in-flight
// frames, and every handler goroutine must drain.
func TestCloseBinaryDuringInflightDecode(t *testing.T) {
	reg, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, reg, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeBinary(ln) }()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			buf := AppendBinPrologueV2(nil)
			buf = AppendSessionFrame(buf, uint64(w)+1)
			buf = AppendDictFrame(buf, 1, "lat", "")
			if _, err := conn.Write(buf); err != nil {
				return
			}
			// Drain replies so the server never blocks on a full socket.
			go func() { _, _ = io.Copy(io.Discard, conn) }()
			big := permutation(4096)
			for seq := uint64(1); ; seq++ {
				frame := AppendBatchSeqFrame(nil, 1, seq, big, nil)
				if _, err := conn.Write(frame); err != nil {
					return // the shutdown cut us off mid-stream: expected
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let the writers get properly mid-flight
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeBinary: %v", err)
	}
	wg.Wait()
}

// TestBinClientDistinctRandomSessionIDs guards the random session id draw:
// clients constructed back to back (as a load generator opening N
// connections does) must never share a session id, or the server's dedup
// silently discards one client's batches as replays of the other's. The
// draw must therefore come from the process-global source, not from a
// per-client time-seeded rng that collides within one clock tick.
func TestBinClientDistinctRandomSessionIDs(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 256; i++ {
		c, err := NewBinClient(BinClientOptions{Addr: "127.0.0.1:1", Metric: "m"})
		if err != nil {
			t.Fatal(err)
		}
		if c.sid == 0 {
			t.Fatal("v2 client with session id 0")
		}
		if seen[c.sid] {
			t.Fatalf("session id collision after %d clients: %d", i, c.sid)
		}
		seen[c.sid] = true
	}
}
