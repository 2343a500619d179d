package serve

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"time"
)

// binSession is the per-stream state of one binary ingest carrier: the
// stream rules it enforces (binGrammar), the pinned dedup entry of the
// session the stream declared, and the decode scratch for hosts where the
// zero-copy value view is unavailable.
type binSession struct {
	s    *Server
	g    binGrammar
	ent  *sessionEntry // nil until the stream declares a session
	vals []float64
	wts  []float64
}

// close releases the stream's pin on its session entry so the dedup table
// can evict it once idle. Idempotent.
func (bs *binSession) close() {
	if bs.ent != nil {
		bs.s.reg.sessions.release(bs.ent)
		bs.ent = nil
	}
}

// handleFrame applies one parsed frame: dict frames extend the interning
// table (creating the metric when a backend tag is present), a session
// frame binds the stream to its client session — re-declaring it is an
// idempotent re-read, since a retried POST /ingest/bin body starts with its
// session frame every time — and batch frames go through Server.ingest (buf
// is the pooled buffer the frame's values view into; the apply queue
// retains it until the batch is applied). Returns the number of values
// accepted (batch frames only).
func (bs *binSession) handleFrame(fr binParsed, buf *pooledBuf) (int, error) {
	name, err := bs.g.check(&fr)
	if err != nil {
		return 0, err
	}
	switch fr.typ {
	case binFrameDict:
		if fr.backend != "" {
			return 0, bs.s.reg.EnsureBackend(fr.name, fr.backend)
		}
	case binFrameSession:
		if bs.ent == nil {
			bs.ent = bs.s.reg.sessions.acquire(fr.sid)
		}
	case binFrameBatch:
		var id *batchID
		if fr.sequenced {
			id = &batchID{ent: bs.ent, seq: fr.seq}
		}
		ws := fr.weights
		if fr.weighted && ws == nil {
			ws = []float64{} // an empty weighted batch still needs the weighted backend
		}
		if err := bs.s.ingest(name, fr.values, ws, buf, id); err != nil {
			return 0, err
		}
		return len(fr.values), nil
	}
	return 0, nil
}

// handleIngestBin serves POST /ingest/bin: the body is one binary ingest
// stream (prologue + frames) and the response is the same JSON ingest reply
// as POST /ingest. Within HTTP no ack or sessionAck frames are emitted — the
// status code is the ack. Session frames and sequenced batches are
// honoured, so a retried POST of the same body is idempotent; the duplicate
// batches are counted as accepted, exactly as their originals were.
func (s *Server) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	if degraded, _, _, lastErr := s.health.state(s.opt.FailureThreshold); degraded {
		s.writeIngestError(w, fmt.Errorf("%w (last error: %s)", ErrDegraded, lastErr))
		return
	}
	// The body lands in a refcounted pooled buffer: batch frames parse
	// zero-copy value views out of it and the apply queue holds a reference
	// per enqueued batch, so the bytes live exactly as long as the last
	// queued batch needs them.
	buf := getFrameBuf(0)
	defer buf.release()
	var ok bool
	if buf.b, ok = ReadIngestBody(w, r, s.opt.MaxIngestBytes, buf.b); !ok {
		return
	}
	if err := parseBinPrologue(buf.b); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The pooled body buffer starts 8-aligned and the prologue is 8 bytes,
	// so every frame payload below parses with the zero-copy value view.
	bs := &binSession{s: s}
	defer bs.close()
	rest := buf.b[binPrologueLen:]
	var resp IngestResponse
	for len(rest) > 0 {
		fr, tail, err := parseBinFrame(rest, bs.vals, bs.wts)
		rest = tail
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		accepted, err := bs.handleFrame(fr, buf)
		if err != nil {
			s.writeIngestError(w, err)
			return
		}
		if fr.typ == binFrameBatch {
			resp.Accepted += int64(accepted)
			resp.Batches++
		}
	}
	if resp.Batches == 0 {
		WriteError(w, http.StatusBadRequest, errNoBatchFrames)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ackStatus compresses the HTTP status taxonomy into the ack frame's status
// byte. 0 is success; anything else carries the error message. Sequenced
// batches on a session are deduplicated by sequence number, so retrying one
// (after an error ack or a dead connection) is exactly-once; an unsequenced
// batch carries no identity, so its retry after a lost ack may double-count.
const (
	ackOK          = 0
	ackBadRequest  = 1 // malformed frame, bad metric/backend/weights — do not retry
	ackDegraded    = 2 // server shedding ingest — retry later
	ackUnavailable = 3 // batch not made durable — retry
	ackInternal    = 4
)

func ackStatusFor(err error) byte {
	switch statusFor(err) {
	case http.StatusBadRequest, http.StatusNotFound:
		return ackBadRequest
	case http.StatusTooManyRequests:
		return ackDegraded
	case http.StatusServiceUnavailable:
		return ackUnavailable
	default:
		return ackInternal
	}
}

// ServeBinary accepts persistent binary ingest connections on ln until
// Shutdown. Each connection is one stream: prologue, then frames; every
// batch frame is answered by one ack frame, in order, after its batch is
// durable under the WAL policy, and every session frame by one sessionAck.
// Every failed batch is fatal (error ack, then close): the exactly-once
// high-water mark is only sound while application is a contiguous prefix,
// so a stream never applies past a failed batch. Framing errors (bad
// prologue, CRC mismatch, torn frame) likewise draw a final error ack and
// close the connection.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.mu.Lock()
	if s.binClosed {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("serve: server is shut down")
	}
	s.binLns = append(s.binLns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.binClosed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.binWG.Add(1)
		go s.serveBinaryConn(conn)
	}
}

// ListenAndServeBinary is ServeBinary on a fresh TCP listener.
func (s *Server) ListenAndServeBinary(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("quantiled binary ingest listening on %s", ln.Addr())
	return s.ServeBinary(ln)
}

// closeBinary tears down the binary listeners and connections; called from
// Shutdown. Acked batches are durable regardless; a batch in flight when
// its connection drops was simply never acked.
func (s *Server) closeBinary() {
	s.mu.Lock()
	s.binClosed = true
	lns := s.binLns
	s.binLns = nil
	conns := make([]net.Conn, 0, len(s.binConns))
	for c := range s.binConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.binWG.Wait()
}

func (s *Server) serveBinaryConn(conn net.Conn) {
	defer s.binWG.Done()
	s.mu.Lock()
	if s.binClosed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if s.binConns == nil {
		s.binConns = make(map[net.Conn]struct{})
	}
	s.binConns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.binConns, conn)
		s.mu.Unlock()
	}()

	// Deadline discipline (a hung or slow-loris peer must not pin this
	// goroutine): waiting for the next frame header gets the idle timeout;
	// once a frame has started, reading its payload and writing acks get the
	// tighter IO timeout. Negative options disable either.
	idle, ioTO := s.opt.BinIdleTimeout, s.opt.BinIOTimeout
	readDeadline := func(d time.Duration) {
		if d > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(d))
		} else {
			_ = conn.SetReadDeadline(time.Time{})
		}
	}
	writeDeadline := func() {
		if ioTO > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(ioTO))
		}
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	fatal := func(err error) {
		writeDeadline()
		var ack []byte
		ack = AppendAckFrame(ack, ackStatusFor(err), 0, err.Error())
		_, _ = bw.Write(ack)
		_ = bw.Flush()
	}

	var pro [binPrologueLen]byte
	readDeadline(idle)
	if _, err := io.ReadFull(br, pro[:]); err != nil {
		return
	}
	if err := parseBinPrologue(pro[:]); err != nil {
		fatal(err)
		return
	}
	bs := &binSession{s: s}
	defer bs.close()
	hdr := make([]byte, binFrameHeaderLen)
	var ackBuf []byte
	for {
		readDeadline(idle)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return // EOF: the writer is done (or idled out)
		}
		plen, crc, err := parseBinFrameHeader(hdr)
		if err != nil {
			fatal(err)
			return
		}
		// Each frame's payload lands in a refcounted pooled buffer: the
		// batch's value view is handed to the apply queue without a copy and
		// the buffer recycles once the batch is applied, so the connection
		// can decode the next frame immediately.
		payload := getFrameBuf(plen)
		readDeadline(ioTO)
		if _, err := io.ReadFull(br, payload.b); err != nil {
			payload.release()
			return
		}
		if crc32.Checksum(payload.b, castagnoliBin) != crc {
			payload.release()
			fatal(fmt.Errorf("%w: CRC mismatch", ErrBadFrame))
			return
		}
		fr, err := parseBinPayload(payload.b, bs.vals, bs.wts)
		if err != nil {
			payload.release()
			fatal(err)
			return
		}
		accepted, err := bs.handleFrame(fr, payload)
		payload.release()
		if err != nil {
			// Exactly-once discipline: never apply past a failed batch. The
			// client reconnects and replays from the high-water mark the
			// fresh sessionAck reports.
			fatal(err)
			return
		}
		switch fr.typ {
		case binFrameSession:
			ackBuf = AppendSessionAckFrame(ackBuf[:0], ackOK, bs.ent.hw.Load())
		case binFrameBatch:
			ackBuf = AppendAckFrame(ackBuf[:0], ackOK, uint32(accepted), "")
		default:
			continue
		}
		writeDeadline()
		if _, err := bw.Write(ackBuf); err != nil {
			return
		}
		// A sessionAck is flushed at once: the client blocks on it before
		// replaying. Batch acks flush when the pipeline has drained: while
		// more frames are already buffered the acks batch up with them, one
		// syscall per burst.
		if fr.typ == binFrameSession || br.Buffered() < binFrameHeaderLen {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}
