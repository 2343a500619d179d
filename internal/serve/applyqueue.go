package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The async apply pipeline decouples durability from application on the
// ingest path every carrier shares. Request and connection goroutines decode
// a batch, dedup it against its session, append it to the WAL and ack as
// soon as the fsync covering it completes; the sketch work moves to a small
// pool of apply workers draining per-metric FIFO queues. Binary batch
// buffers are handed off by refcounted pooled ownership — the float64 view
// parsed out of a frame is applied without ever being copied; JSON decode
// scratch is copied once into the queue — and a drainer applies the whole
// backlog it finds as one run under one hold of the metric's lock.
//
// Correctness invariants:
//
//   - Read-your-acks: every query path drains the metric's queue up to the
//     enqueue watermark taken at query time before answering, so a batch
//     whose ack the client has seen is always in the answer.
//   - Exactly-once: the session high-water mark advances at enqueue time,
//     under the same entry mutex and WAL ordering as before. An
//     acked-but-unapplied batch is by construction in the WAL, so a crash
//     replays it; a live process applies it at the next drain barrier.
//   - Checkpoint cuts: the checkpointer holds the ingest gate exclusively
//     (no enqueues can race) and drains every queue before sealing, so the
//     encoded sketches contain exactly the batches at or below the recorded
//     WAL position.
//   - Order: one queue per metric, one drainer at a time, FIFO — batches
//     within a metric apply in ack order to its one summary, which keeps the
//     JSON-vs-binary bit-identity differential exact.
//
// Backpressure is a bounded per-metric queue depth: reservations are taken
// BEFORE the WAL append, so a shed batch (ErrApplyBacklog) was never made
// durable and a retry can never double-count.

// ErrApplyBacklog is returned under the shed backpressure policy when a
// metric's apply queue is full: the batch was NOT logged or applied, so the
// client should retry later (HTTP 429).
var ErrApplyBacklog = errors.New("serve: apply queue full, batch shed")

// defaultApplyQueueDepth bounds one metric's apply backlog, in batches.
const defaultApplyQueueDepth = 256

// maxPooledFrameBytes caps buffers returned to the frame pool; one
// pathological frame must not pin megabytes forever.
const maxPooledFrameBytes = 1 << 20

// pooledBuf is a refcounted pooled byte buffer: the binary ingest carriers
// read each frame (or HTTP body) into one, parse zero-copy float64 views out
// of it, and hand a reference to the apply queue alongside the view. The
// buffer returns to the pool when the last holder releases it, so the bytes
// live exactly as long as the batch needs them and steady-state ingest
// allocates nothing.
type pooledBuf struct {
	b    []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(pooledBuf) }}

// getFrameBuf returns a pooled buffer sized to n bytes with one reference.
// The backing array always starts 8-aligned (Go allocates []byte of size >= 8
// at 8-byte alignment), so the zero-copy float64 view applies to payloads
// laid out by the MRLB framing.
func getFrameBuf(n int) *pooledBuf {
	p := framePool.Get().(*pooledBuf)
	if cap(p.b) < n {
		p.b = make([]byte, n)
	}
	p.b = p.b[:n]
	p.refs.Store(1)
	return p
}

// retain adds a reference; the apply queue takes one per enqueued batch that
// views into the buffer.
func (p *pooledBuf) retain() { p.refs.Add(1) }

// release drops one reference, returning the buffer to the pool when it was
// the last. Safe on nil.
func (p *pooledBuf) release() {
	if p == nil {
		return
	}
	if p.refs.Add(-1) == 0 {
		if cap(p.b) <= maxPooledFrameBytes {
			framePool.Put(p)
		}
	}
}

// viewInto reports whether vs is a zero-copy view into buf's bytes. The
// decode scratch fallback (big-endian host, misaligned payload) returns
// values outside the buffer; those must be copied before an async handoff
// because the scratch is reused by the next frame.
func viewInto(buf []byte, vs []float64) bool {
	if len(vs) == 0 || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&vs[0]))
	b := uintptr(unsafe.Pointer(&buf[0]))
	return p >= b && p < b+uintptr(len(buf))
}

// applyItem is one decoded batch parked between its ack and its application.
type applyItem struct {
	vs []float64
	ws []float64 // nil for plain batches
	// buf is the pooled buffer vs/ws view into (one reference held); nil
	// when the slices stand alone (WAL replay, copied scratch decodes, JSON).
	buf *pooledBuf
	// replay marks recovery items: they bypass the window ring and count as
	// replayed rather than ingested.
	replay bool
}

// applyQueue is one metric's MPSC apply backlog: any number of connection
// goroutines reserve+enqueue, one drainer at a time (a pool worker or a
// query thread helping out) applies in FIFO order.
type applyQueue struct {
	mu   sync.Mutex
	cond sync.Cond // broadcast when space frees, work arrives, or applied advances

	items []applyItem // FIFO; items[head:] is the live backlog
	head  int

	reserved   int  // reservations taken but not yet enqueued (pre-WAL)
	active     bool // a drainer is applying this queue
	dispatched bool // queued in the pool's ready list

	enqueued uint64 // tickets issued (one per enqueued batch)
	applied  uint64 // tickets applied

	pool *applyPool
}

func (q *applyQueue) init(pool *applyPool) {
	q.cond.L = &q.mu
	q.pool = pool
}

// depth is the current backlog including outstanding reservations; caller
// holds q.mu.
func (q *applyQueue) depthLocked() int { return len(q.items) - q.head + q.reserved }

// reserve claims one slot in the queue before the batch is made durable.
// Under the shed policy a full queue fails fast with ErrApplyBacklog; under
// the block policy (default) the caller waits for a drainer to free space.
// forceBlock overrides shed for callers that must not drop (WAL replay).
func (q *applyQueue) reserve(forceBlock bool) error {
	q.mu.Lock()
	waited := false
	for q.depthLocked() >= q.pool.depth {
		if q.pool.shed && !forceBlock {
			q.mu.Unlock()
			q.pool.shedBatches.Add(1)
			return ErrApplyBacklog
		}
		if !waited {
			waited = true
			q.pool.blockedEnqueues.Add(1)
		}
		q.cond.Wait()
	}
	q.reserved++
	q.mu.Unlock()
	return nil
}

// cancel returns a reservation whose WAL append failed.
func (q *applyQueue) cancel() {
	q.mu.Lock()
	q.reserved--
	q.cond.Broadcast()
	q.mu.Unlock()
}

// enqueue converts a reservation into a queued batch and wakes a drainer.
// The item's buffer reference is owned by the queue from here on.
func (q *applyQueue) enqueue(m *metric, it applyItem) {
	q.pool.enqueuedBatches.Add(1)
	q.mu.Lock()
	q.reserved--
	q.items = append(q.items, it)
	q.enqueued++
	dispatch := !q.active && !q.dispatched
	if dispatch {
		q.dispatched = true
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	if dispatch {
		q.pool.dispatch(m)
	}
}

// pending is the live applied-vs-acked lag in batches.
func (q *applyQueue) pending() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.enqueued - q.applied
}

// drainTo applies queued batches until the ticket target is reached; caller
// holds q.mu and has claimed q.active. The lock is dropped around the sketch
// work, so enqueuers and waiters are never blocked behind an apply.
func (q *applyQueue) drainTo(m *metric, target uint64) {
	for q.applied < target && q.head < len(q.items) {
		run := q.items[q.head:]
		if left := int(target - q.applied); len(run) > left {
			run = run[:left]
		}
		q.mu.Unlock()
		failed, err := m.apply(run)
		for _, it := range run {
			it.buf.release()
		}
		q.pool.count(len(run), failed, err)
		q.mu.Lock()
		q.head += len(run)
		q.applied += uint64(len(run))
		if q.head == len(q.items) {
			// Reset in place, keeping the capacity: a warm queue never
			// reallocates its backlog slice. Clear first: the applied items
			// still point at released frame buffers and copied values.
			clear(q.items)
			q.items = q.items[:0]
			q.head = 0
		}
		q.cond.Broadcast()
	}
}

// drain blocks until every batch enqueued before the call is applied — the
// read-your-acks barrier every query path runs. If no worker is on the
// queue, the calling thread claims it and applies the backlog itself, so
// queries make progress even with zero configured workers.
func (q *applyQueue) drain(m *metric) {
	q.mu.Lock()
	target := q.enqueued
	for q.applied < target {
		if !q.active && q.head < len(q.items) {
			q.active = true
			q.drainTo(m, target)
			q.active = false
			q.cond.Broadcast()
		} else {
			q.cond.Wait()
		}
	}
	q.mu.Unlock()
}

// applyPool is the shared worker pool draining every metric's queue, plus
// the apply pipeline's configuration and observability counters.
type applyPool struct {
	mu      sync.Mutex
	cond    sync.Cond
	ready   []*metric // metrics with backlog awaiting a worker
	stopped bool

	workers int  // configured pool size
	depth   int  // per-metric queue bound, in batches
	shed    bool // true: full queue sheds (ErrApplyBacklog); false: blocks

	running atomic.Int64 // workers currently applying (not parked)

	// Counters for the /metricsz apply block.
	enqueuedBatches  atomic.Int64
	appliedBatches   atomic.Int64
	coalescedBatches atomic.Int64 // batches applied in a run of more than one
	shedBatches      atomic.Int64
	blockedEnqueues  atomic.Int64
	applyErrors      atomic.Int64
	runs             atomic.Int64 // drain sessions executed by pool workers
	busyNanos        atomic.Int64 // cumulative worker time spent applying

	lastErr atomic.Value // string: most recent apply error
}

func newApplyPool(workers, depth int, shed bool) *applyPool {
	p := &applyPool{workers: workers, depth: depth, shed: shed}
	p.cond.L = &p.mu
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// dispatch hands a metric with fresh backlog to the pool. With zero workers
// the backlog simply waits for the next drain barrier (queries, rotation,
// checkpoints) — a supported configuration for pure batch-oriented loads.
func (p *applyPool) dispatch(m *metric) {
	p.mu.Lock()
	p.ready = append(p.ready, m)
	p.cond.Signal()
	p.mu.Unlock()
}

// close parks the pool permanently; queued work is still drained by the
// barrier paths. Called from Server.Shutdown.
func (p *applyPool) close() {
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// worker drains ready metrics round-robin: one bounded session per claim (the
// backlog present at claim time), re-queueing the metric when more arrived
// during the session, so one hot metric cannot starve the rest.
func (p *applyPool) worker() {
	for {
		p.mu.Lock()
		for len(p.ready) == 0 && !p.stopped {
			p.cond.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		m := p.ready[0]
		p.ready = p.ready[1:]
		p.mu.Unlock()

		q := &m.q
		q.mu.Lock()
		q.dispatched = false
		if q.active || q.head == len(q.items) {
			// Another drainer owns the queue (it drains to empty) or a
			// barrier got here first; nothing to do.
			q.mu.Unlock()
			continue
		}
		q.active = true
		target := q.enqueued
		p.running.Add(1)
		start := time.Now()
		q.drainTo(m, target)
		p.busyNanos.Add(int64(time.Since(start)))
		p.running.Add(-1)
		p.runs.Add(1)
		q.active = false
		more := q.head < len(q.items)
		if more && !q.dispatched {
			q.dispatched = true
		} else {
			more = false
		}
		q.cond.Broadcast()
		q.mu.Unlock()
		if more {
			p.dispatch(m)
		}
	}
}

// count records one applied run: its batches, whether they shared a hold
// of the metric's lock with others, and its failures. Batches are fully
// validated before they are logged and enqueued, so an apply error here
// means a bug (or a backend invariant violated); it is counted and surfaced
// in /metricsz rather than lost, but there is no client left to answer.
func (p *applyPool) count(batches, failed int, err error) {
	p.appliedBatches.Add(int64(batches))
	if batches > 1 {
		p.coalescedBatches.Add(int64(batches))
	}
	if failed > 0 {
		p.applyErrors.Add(int64(failed))
		p.lastErr.Store(err.Error())
	}
}
