package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"time"
)

// BinAck is a decoded ack frame — the server's in-order, per-batch answer
// on the TCP carrier of the binary ingest protocol. It is the client-side
// counterpart of AppendAckFrame, exported for load tools (cmd/quantileload)
// that speak the protocol without linking the server internals.
type BinAck struct {
	// Status is 0 when the batch was fully ingested. Nonzero values map the
	// failure class the HTTP carrier would have reported as a status code
	// (bad request, degraded, unavailable, internal); Msg carries the text.
	Status byte
	// Accepted counts the values ingested by the acknowledged batch.
	Accepted uint32
	// Msg is the error message accompanying a nonzero Status.
	Msg string
}

// OK reports whether the acknowledged batch was fully ingested.
func (a BinAck) OK() bool { return a.Status == 0 }

// ReadBinAck reads and decodes exactly one ack frame from r, verifying the
// frame CRC. Any other frame type, or a malformed frame, is an ErrBadFrame;
// transport errors (including a clean EOF after the peer closed) pass
// through untouched.
func ReadBinAck(r io.Reader) (BinAck, error) {
	fr, err := readBinReply(r)
	if err != nil {
		return BinAck{}, err
	}
	if fr.typ != binFrameAck {
		return BinAck{}, fmt.Errorf("%w: expected ack frame, got type %d", ErrBadFrame, fr.typ)
	}
	return BinAck{Status: fr.status, Accepted: fr.accepted, Msg: fr.msg}, nil
}

// readBinReply reads one server-to-client frame (ack or sessionAck).
func readBinReply(r io.Reader) (binParsed, error) {
	var hdr [binFrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return binParsed{}, err
	}
	plen, crc, err := parseBinFrameHeader(hdr[:])
	if err != nil {
		return binParsed{}, err
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return binParsed{}, err
	}
	if crc32.Checksum(payload, castagnoliBin) != crc {
		return binParsed{}, fmt.Errorf("%w: reply CRC mismatch", ErrBadFrame)
	}
	return parseBinPayload(payload, nil, nil)
}

// Typed delivery failures of BinClient.
var (
	// ErrBreakerOpen reports a batch dropped before it was enqueued because
	// the circuit breaker is open; it was never sent and never will be.
	ErrBreakerOpen = errors.New("serve: binary ingest circuit breaker open, batch dropped")
	// ErrClientClosed rejects use of a closed BinClient.
	ErrClientClosed = errors.New("serve: binary ingest client closed")
)

// BinClientOptions configures a BinClient.
type BinClientOptions struct {
	// Addr is the server's binary ingest TCP address.
	Addr string
	// Dial overrides how connections are made (fault injection, custom
	// transports); nil means net.DialTimeout("tcp", Addr, DialTimeout).
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds the default dialer; it defaults to 5s.
	DialTimeout time.Duration

	// Metric is the metric every batch feeds; Backend optionally pins its
	// summary implementation (empty keeps the server default).
	Metric  string
	Backend string

	// SessionID is the client session identity for exactly-once delivery;
	// 0 picks a random one.
	SessionID uint64

	// RetryMin and RetryMax bound the reconnect/retry backoff (exponential
	// with 25% jitter, the server's discipline); they default to 100ms/5s.
	RetryMin time.Duration
	RetryMax time.Duration
	// AckTimeout bounds one ack read; it defaults to 10s. A timeout counts
	// as a connection failure: reconnect and replay.
	AckTimeout time.Duration

	// MaxInflight is how many unacked batches may ride the wire at once
	// before Send blocks reading acks; it defaults to 32.
	MaxInflight int

	// BreakerThreshold is how many consecutive connection-level failures
	// open the circuit breaker (Send then drops new batches with
	// ErrBreakerOpen instead of blocking); 0 defaults to 8, negative
	// disables the breaker. BreakerCooldown is how long it stays open;
	// it defaults to RetryMax.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// OnAck, when set, is called once per acknowledged batch with the
	// number of values accepted and the time since the batch was enqueued
	// (retries and reconnects included).
	OnAck func(values int, latency time.Duration)

	// Logf receives one line per rejected batch; nil is silent.
	Logf func(format string, args ...any)

	// Rand seeds the backoff jitter and the random session id; nil uses a
	// time-seeded source for jitter and the process-global source for the
	// session id. The global source matters: two clients constructed in the
	// same clock tick would otherwise draw identical time-seeded ids, and
	// colliding session ids make the server's dedup silently discard one
	// client's batches as replays of the other's.
	Rand *rand.Rand
}

// BinClientStats counts what happened to every batch handed to Send.
type BinClientStats struct {
	// SentBatches counts batch frames written to the wire, resends
	// included.
	SentBatches uint64
	// AckedBatches and AckedValues count batches confirmed applied exactly
	// once — including batches confirmed via a reconnect's sessionAck
	// high-water mark rather than an explicit ack.
	AckedBatches uint64
	AckedValues  uint64
	// DroppedBatches and DroppedValues count batches refused by the open
	// circuit breaker; they were never enqueued.
	DroppedBatches uint64
	DroppedValues  uint64
	// RejectedBatches counts batches the server refused as bad requests;
	// retrying cannot help, so they are dropped after the error ack.
	RejectedBatches uint64
	RejectedValues  uint64
	// Reconnects counts connections established after the first.
	Reconnects uint64
}

// pendingBatch is one enqueued batch awaiting acknowledgement.
type pendingBatch struct {
	seq      uint64 // per-session sequence number
	values   []float64
	enqueued time.Time
	written  bool // written on the live connection, ack pending
}

// BinClient is a resilient writer for the binary ingest TCP carrier: it
// owns one connection, reconnects with capped exponential backoff, and
// replays unacknowledged batches after a reconnect with exactly-once
// semantics: every batch carries a session-scoped sequence number the
// server deduplicates, and the sessionAck answered on reconnect carries the
// server's durable high-water mark so already-applied batches are confirmed
// instead of resent.
//
// Delivery contract: a batch Send has enqueued (a nil return) is retried
// until the server acknowledges it or rejects it as a bad request. Flush
// blocks until the queue is empty.
//
// A BinClient is not safe for concurrent use; drive it from one goroutine.
type BinClient struct {
	opt BinClientOptions
	rng *rand.Rand

	conn    net.Conn
	connBuf []byte // staged frames for one write

	sid     uint64
	nextSeq uint64

	// queue holds every unacked batch in enqueue (= sequence) order;
	// inflight is the subsequence written on the live connection, in write
	// order — the order acks answer in.
	queue    []*pendingBatch
	inflight []*pendingBatch

	fails        int // consecutive connection-level failures
	breakerUntil time.Time
	closed       bool

	stats BinClientStats
}

// NewBinClient validates opt and returns a client. No connection is made
// until the first Send or Flush.
func NewBinClient(opt BinClientOptions) (*BinClient, error) {
	if opt.Addr == "" && opt.Dial == nil {
		return nil, errors.New("serve: BinClientOptions.Addr or Dial required")
	}
	if opt.Metric == "" {
		return nil, errors.New("serve: BinClientOptions.Metric required")
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 5 * time.Second
	}
	if opt.RetryMin <= 0 {
		opt.RetryMin = 100 * time.Millisecond
	}
	if opt.RetryMax < opt.RetryMin {
		opt.RetryMax = 5 * time.Second
		if opt.RetryMax < opt.RetryMin {
			opt.RetryMax = opt.RetryMin
		}
	}
	if opt.AckTimeout <= 0 {
		opt.AckTimeout = 10 * time.Second
	}
	if opt.MaxInflight <= 0 {
		opt.MaxInflight = 32
	}
	if opt.BreakerThreshold == 0 {
		opt.BreakerThreshold = 8
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = opt.RetryMax
	}
	rng := opt.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	c := &BinClient{opt: opt, rng: rng, sid: opt.SessionID}
	for c.sid == 0 {
		if opt.Rand != nil {
			c.sid = opt.Rand.Uint64()
		} else {
			// Never the time-seeded rng: clients constructed in the same
			// clock tick would collide, and the server dedups colliding
			// sessions into silent batch loss.
			c.sid = rand.Uint64()
		}
	}
	return c, nil
}

// Stats returns a snapshot of the delivery counters.
func (c *BinClient) Stats() BinClientStats { return c.stats }

// Send enqueues one batch for the configured metric and pumps the
// connection until the in-flight window has room again. A nil return means
// the batch is enqueued (and usually on the wire) — not yet necessarily
// acknowledged; use Flush to drain. ErrBreakerOpen means the batch was
// dropped without being enqueued.
func (c *BinClient) Send(values []float64) error {
	if c.closed {
		return ErrClientClosed
	}
	if c.breakerOpen() {
		c.stats.DroppedBatches++
		c.stats.DroppedValues += uint64(len(values))
		return ErrBreakerOpen
	}
	c.nextSeq++
	b := &pendingBatch{
		seq:      c.nextSeq,
		values:   append([]float64(nil), values...),
		enqueued: time.Now(),
	}
	c.queue = append(c.queue, b)
	c.pump(c.opt.MaxInflight, false)
	return nil
}

// Flush blocks until every enqueued batch is acknowledged (or rejected),
// retrying past the breaker.
func (c *BinClient) Flush() error {
	if c.closed {
		return ErrClientClosed
	}
	c.pump(0, true)
	return nil
}

// Close flushes the queue and closes the connection. The client is
// unusable afterwards.
func (c *BinClient) Close() error {
	if c.closed {
		return ErrClientClosed
	}
	c.pump(0, true)
	c.closed = true
	c.teardown()
	return nil
}

func (c *BinClient) breakerOpen() bool {
	return c.opt.BreakerThreshold > 0 && time.Now().Before(c.breakerUntil)
}

// noteFail records one connection-level failure: it feeds the backoff
// exponent and, past the threshold, opens the breaker.
func (c *BinClient) noteFail() {
	c.fails++
	if c.opt.BreakerThreshold > 0 && c.fails >= c.opt.BreakerThreshold {
		c.breakerUntil = time.Now().Add(c.opt.BreakerCooldown)
	}
}

// backoff is the server's retry discipline client-side: RetryMin doubled
// per consecutive failure, capped at RetryMax, plus up to 25% jitter.
func (c *BinClient) backoff() time.Duration {
	d := c.opt.RetryMin
	for i := 1; i < c.fails && d < c.opt.RetryMax; i++ {
		d *= 2
	}
	if d > c.opt.RetryMax {
		d = c.opt.RetryMax
	}
	return d + time.Duration(c.rng.Int63n(int64(d)/4+1))
}

func (c *BinClient) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// pump drives the connection until at most maxLeft batches remain unacked.
// With force unset it gives up silently (queue intact) once the breaker
// opens; with force set it retries until done. Transport failures are
// retried or deferred, never surfaced: after a dead connection the
// written-but-unacked batches simply stay queued, and the next
// connection's sessionAck high-water mark tells which ones were applied.
func (c *BinClient) pump(maxLeft int, force bool) {
	for len(c.queue) > maxLeft || c.unwritten() {
		if !force && c.breakerOpen() {
			return
		}
		if err := c.cycle(maxLeft); err != nil {
			c.teardown()
			c.inflight = c.inflight[:0]
			c.noteFail()
			if !force && c.breakerOpen() {
				return
			}
			time.Sleep(c.backoff())
		}
	}
}

// unwritten reports whether any queued batch still needs a (re)send.
func (c *BinClient) unwritten() bool {
	for _, b := range c.queue {
		if !b.written {
			return true
		}
	}
	return false
}

// cycle makes one connected attempt: ensure a live stream, write every
// unwritten batch, then read acks until the queue is short enough. Any
// returned error is connection-level; the caller tears down and retries.
func (c *BinClient) cycle(maxLeft int) error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	if err := c.writeUnwritten(); err != nil {
		return err
	}
	for len(c.queue) > maxLeft && len(c.inflight) > 0 {
		if err := c.readOneAck(); err != nil {
			return err
		}
	}
	if len(c.queue) > maxLeft && len(c.inflight) == 0 {
		// Everything left is unwritten (error-acked batches awaiting
		// resend); go around again.
		return c.writeUnwritten()
	}
	return nil
}

// ensureConn dials, sends the prologue, session and dict frames, and prunes
// the queue by the sessionAck's high-water mark: batches the server already
// applied are confirmed without a resend.
func (c *BinClient) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	var conn net.Conn
	var err error
	if c.opt.Dial != nil {
		conn, err = c.opt.Dial(c.opt.Addr)
	} else {
		conn, err = net.DialTimeout("tcp", c.opt.Addr, c.opt.DialTimeout)
	}
	if err != nil {
		return err
	}
	if c.stats.SentBatches > 0 || c.stats.Reconnects > 0 || c.fails > 0 {
		c.stats.Reconnects++
	}
	buf := AppendBinPrologueV2(c.connBuf[:0])
	buf = AppendSessionFrame(buf, c.sid)
	buf = AppendDictFrame(buf, 1, c.opt.Metric, c.opt.Backend)
	c.connBuf = buf
	_ = conn.SetWriteDeadline(time.Now().Add(c.opt.AckTimeout))
	if _, err := conn.Write(buf); err != nil {
		_ = conn.Close()
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(c.opt.AckTimeout))
	fr, err := readBinReply(conn)
	if err != nil {
		_ = conn.Close()
		return err
	}
	if fr.typ != binFrameSessionAck || fr.status != ackOK {
		_ = conn.Close()
		return fmt.Errorf("%w: expected sessionAck, got frame type %d status %d", ErrBadFrame, fr.typ, fr.status)
	}
	c.pruneAcked(fr.hw)
	c.conn = conn
	return nil
}

// pruneAcked confirms every queued batch at or below the server's durable
// high-water mark: it was applied by a previous connection whose ack never
// arrived.
func (c *BinClient) pruneAcked(hw uint64) {
	kept := c.queue[:0]
	for _, b := range c.queue {
		if b.seq <= hw {
			c.ackBatch(b)
			continue
		}
		b.written = false
		kept = append(kept, b)
	}
	c.queue = kept
	c.inflight = c.inflight[:0]
}

// ackBatch retires one confirmed batch. A confirmation also closes the
// breaker: the server is demonstrably applying batches again.
func (c *BinClient) ackBatch(b *pendingBatch) {
	c.stats.AckedBatches++
	c.stats.AckedValues += uint64(len(b.values))
	c.fails = 0
	c.breakerUntil = time.Time{}
	if c.opt.OnAck != nil {
		c.opt.OnAck(len(b.values), time.Since(b.enqueued))
	}
}

// writeUnwritten sends every queued batch not yet on this connection, in
// sequence order, as one buffered write.
func (c *BinClient) writeUnwritten() error {
	buf := c.connBuf[:0]
	var sent []*pendingBatch
	for _, b := range c.queue {
		if b.written {
			continue
		}
		buf = AppendBatchSeqFrame(buf, 1, b.seq, b.values, nil)
		sent = append(sent, b)
	}
	c.connBuf = buf
	if len(sent) == 0 {
		return nil
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.opt.AckTimeout))
	if _, err := c.conn.Write(buf); err != nil {
		return err
	}
	for _, b := range sent {
		b.written = true
		c.inflight = append(c.inflight, b)
		c.stats.SentBatches++
	}
	return nil
}

// readOneAck consumes the next ack, which answers the oldest in-flight
// batch. Error acks: a bad request drops the batch (resending the same
// bytes cannot succeed); anything else leaves it queued for resend —
// unambiguously, because the error ack itself proves the server did not
// apply it.
func (c *BinClient) readOneAck() error {
	_ = c.conn.SetReadDeadline(time.Now().Add(c.opt.AckTimeout))
	fr, err := readBinReply(c.conn)
	if err != nil {
		return err
	}
	if fr.typ != binFrameAck || len(c.inflight) == 0 {
		return fmt.Errorf("%w: unexpected frame type %d while awaiting ack", ErrBadFrame, fr.typ)
	}
	b := c.inflight[0]
	c.inflight = c.inflight[1:]
	switch fr.status {
	case ackOK:
		c.removeQueued(b)
		c.ackBatch(b)
	case ackBadRequest:
		c.removeQueued(b)
		c.stats.RejectedBatches++
		c.stats.RejectedValues += uint64(len(b.values))
		c.fails = 0 // the server is answering; this batch is just poison
		c.logf("binclient: batch rejected: %s", fr.msg)
	default:
		// Degraded/unavailable/internal: not applied, retry after backoff.
		// The server closes the stream after an error ack; fail the cycle
		// so pump tears down and replays.
		b.written = false
		return fmt.Errorf("serve: batch refused (status %d): %s", fr.status, fr.msg)
	}
	return nil
}

// removeQueued deletes b from the queue (it stays wherever else it is
// referenced).
func (c *BinClient) removeQueued(b *pendingBatch) {
	for i, q := range c.queue {
		if q == b {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// teardown closes the connection. Queued batches keep their written flags
// until the next connection's pruneAcked resolves them.
func (c *BinClient) teardown() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}
