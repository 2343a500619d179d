package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"time"

	"mrl/internal/wal"
	"mrl/quantile"
)

// Typed failures of the durability path; the HTTP layer maps them onto 429
// and 503 with Retry-After.
var (
	// ErrDegraded is returned by ingest while the server is shedding load:
	// the durable log or the checkpoint loop has failed FailureThreshold
	// consecutive times, so acknowledgements could not be honoured anyway.
	// Queries keep serving from memory throughout.
	ErrDegraded = errors.New("serve: degraded, shedding ingest until durability recovers")
	// ErrUnavailable is returned for a batch whose WAL append failed: the
	// batch was NOT made durable and was not applied, so the client must
	// retry it.
	ErrUnavailable = errors.New("serve: batch not made durable")
)

// health counts consecutive durability failures. The server degrades when
// either counter reaches the failure threshold and recovers the moment the
// failing path succeeds again; one success is enough, because a successful
// append or checkpoint proves the storage below is answering.
type health struct {
	mu        sync.Mutex
	walFails  int
	ckptFails int
	lastErr   string
}

// note records the outcome of one WAL (or checkpoint) attempt and returns
// the updated consecutive-failure count.
func (h *health) note(counter *int, err error) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		*counter = 0
	} else {
		*counter++
		h.lastErr = err.Error()
	}
	return *counter
}

func (h *health) noteWAL(err error) int  { return h.note(&h.walFails, err) }
func (h *health) noteCkpt(err error) int { return h.note(&h.ckptFails, err) }

// state reports whether the server is degraded under the given threshold,
// with the failure counts and the last error seen.
func (h *health) state(threshold int) (degraded bool, walFails, ckptFails int, lastErr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	degraded = h.walFails >= threshold || h.ckptFails >= threshold
	return degraded, h.walFails, h.ckptFails, h.lastErr
}

// backoffDelay is capped exponential backoff with jitter: RetryMin doubled
// per consecutive failure, capped at RetryMax, plus up to 25% random slack
// so retry storms from many clients or loops decorrelate.
func (s *Server) backoffDelay(fails int) time.Duration {
	d := s.opt.RetryMin
	for i := 1; i < fails && d < s.opt.RetryMax; i++ {
		d *= 2
	}
	if d > s.opt.RetryMax {
		d = s.opt.RetryMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/4+1))
}

// recoverState rebuilds the registry from the last checkpoint plus the WAL
// suffix it does not cover, then opens the log for appending. Called from
// New, before any request can land.
func (s *Server) recoverState() error {
	var covered uint64
	if s.opt.CheckpointPath != "" {
		seq, err := s.reg.LoadCheckpointFS(s.fs, s.opt.CheckpointPath)
		switch {
		case err == nil:
			covered = seq
			s.logf("restored checkpoint %s (covers WAL seq %d)", s.opt.CheckpointPath, seq)
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start.
		default:
			return err
		}
	}
	if s.opt.WALDir == "" {
		return nil
	}
	st, err := wal.Replay(s.fs, s.opt.WALDir, covered, func(rec wal.Record) error {
		if rec.Session != 0 {
			// Sessioned records carry the binary ingest dedup identity: the
			// same (session, seq) can appear twice in the log — a failed
			// append whose bytes reached the disk anyway, then the client's
			// acked retry — and the checkpoint's restored high-water marks
			// may already cover it. Apply each client batch at most once and
			// rebuild the marks as we go.
			if !s.reg.sessions.replayAdvance(rec.Session, rec.SessionSeq) {
				return nil
			}
		}
		// Enqueue, don't apply: record decode and dedup stay single-threaded
		// (error fidelity and high-water ordering unchanged) while the sketch
		// work fans out across the apply workers, sharded by metric.
		return s.reg.EnqueueReplay(rec.Metric, rec.Values)
	})
	if err != nil {
		return fmt.Errorf("serve: wal replay: %w", err)
	}
	s.reg.drainAll() // every replayed record is applied before serving
	if st.Replayed > 0 || st.Truncated > 0 {
		s.logf("wal replay: %d records re-applied, %d skipped, %d segments truncated (last seq %d)",
			st.Replayed, st.Skipped, st.Truncated, st.LastSeq)
	}
	// covered floors sequence allocation: a checkpoint that pruned every
	// segment leaves an empty directory, and restarting the numbering below
	// its covered seq would make the NEXT recovery skip fresh records as
	// already checkpointed — silent acked loss (the chaos harness caught
	// exactly this). Seqs beyond covered that survive on disk are re-scanned
	// by Open itself.
	l, err := wal.Open(s.opt.WALDir, wal.Options{
		FS:           s.fs,
		SegmentBytes: s.opt.WALSegmentBytes,
		Sync:         s.opt.WALSync,
		LastKnownSeq: covered,
	})
	if err != nil {
		return fmt.Errorf("serve: wal open: %w", err)
	}
	s.wal = l
	return nil
}

// batchID is a sequenced batch's exactly-once identity: the stream's pinned
// session entry and the batch's per-session sequence number.
type batchID struct {
	ent *sessionEntry
	seq uint64
}

// ingest is the one write path every carrier feeds — JSON objects and MRLB
// batch frames over HTTP or TCP alike. ws is non-nil for weighted batches;
// buf is the pooled buffer vs and ws view into, nil when they are caller
// scratch (enqueueApply then copies them out); id is set for sequenced
// batches. A nil return means the batch is durable under the WAL policy and
// queued for apply behind every read-your-acks drain barrier.
//
// The batch is validated first (a batch that can never be applied must
// never become durable) and shed while degraded. Queue space is reserved
// before the WAL append, so a shed batch (ErrApplyBacklog) was never made
// durable and its retry cannot double-count; reserving outside the
// checkpoint gate keeps a blocked reservation from stalling the
// checkpointer. The append and the enqueue then run under the gate's read
// side, so a checkpoint cut — which drains every queue under the write
// side — holds exactly the batches at or below its WAL position.
//
// A sequenced batch runs dedup check, append, enqueue and high-water
// advance under its session entry's mutex, so two connections replaying one
// session cannot interleave and double-apply. The gate is taken inside the
// entry mutex and the checkpointer never takes an entry mutex (hw is
// atomic), so the lock order is acyclic. A seq at or below the mark is a
// retry of a batch already counted: it is accepted without being applied,
// before the degraded check — a duplicate costs no durability, so shedding
// it would only stall the client's replay.
func (s *Server) ingest(name string, vs, ws []float64, buf *pooledBuf, id *batchID) error {
	if err := s.reg.validateBatch(name, vs, ws); err != nil {
		return err
	}
	var m *metric
	var err error
	if ws != nil {
		m, err = s.reg.getOrCreateBackend(name, quantile.BackendWeighted)
	} else {
		m, err = s.reg.getOrCreate(name)
	}
	if err != nil {
		return err
	}
	var sid, seq uint64
	if id != nil {
		id.ent.mu.Lock()
		defer id.ent.mu.Unlock()
		if id.seq <= id.ent.hw.Load() {
			return nil
		}
		sid, seq = id.ent.sid, id.seq
	}
	if degraded, _, _, lastErr := s.health.state(s.opt.FailureThreshold); degraded {
		return fmt.Errorf("%w (last error: %s)", ErrDegraded, lastErr)
	}
	if err := m.q.reserve(false); err != nil {
		return err
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.wal != nil {
		recName, recVals := s.reg.walRecord(m, vs, ws)
		if _, err := s.wal.AppendPipelinedSeq(recName, recVals, sid, seq); err != nil {
			m.q.cancel()
			s.health.noteWAL(err)
			// The WAL may now hold a record for (sid, seq) that was never
			// enqueued here, but the mark was not advanced and the stream
			// dies: the client's retry re-logs and applies it, and recovery
			// dedups the two records via replayAdvance.
			return fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
		s.health.noteWAL(nil)
	}
	s.enqueueApply(m, vs, ws, buf)
	if id != nil {
		// Enqueue-then-advance keeps the high-water contract: a seq at or
		// below the mark is always either applied or queued behind a drain
		// barrier, and it is durable in the WAL either way.
		id.ent.hw.Store(id.seq)
	}
	return nil
}

// enqueueApply hands one validated, durable batch to the metric's apply
// queue. When the values (and weights) are zero-copy views into the pooled
// frame buffer the queue retains the buffer until the batch is applied;
// anything else — a scratch-decoded frame, a JSON request's pooled decode
// slices — is copied out, since its backing array is reused by the next
// batch. The caller has already reserved queue space.
func (s *Server) enqueueApply(m *metric, vs, ws []float64, buf *pooledBuf) {
	if len(vs) == 0 {
		m.q.cancel()
		m.batches.Add(1) // empty batches count, same as the sync path
		return
	}
	if buf != nil && viewInto(buf.b, vs) && (ws == nil || viewInto(buf.b, ws)) {
		buf.retain()
	} else {
		buf = nil
		vs = append([]float64(nil), vs...)
		if ws != nil {
			ws = append([]float64(nil), ws...)
		}
	}
	m.q.enqueue(m, applyItem{vs: vs, ws: ws, buf: buf})
}

// saveCheckpoint cuts an exact checkpoint: the gate's write side excludes
// in-flight ingests, so the encoded sketches contain precisely the batches
// with WAL sequence numbers <= the recorded position. The slow part —
// landing the bytes durably — happens after the gate is released, and
// sealed WAL segments the new checkpoint covers are pruned afterwards.
func (s *Server) saveCheckpoint() error {
	s.gate.Lock()
	var seq uint64
	if s.wal != nil {
		seq = s.wal.LastSeq()
	}
	data, err := s.reg.encodeCheckpoint(seq)
	s.gate.Unlock()
	if err != nil {
		return err
	}
	if err := writeCheckpointFile(s.fs, s.opt.CheckpointPath, data); err != nil {
		return err
	}
	if s.wal != nil {
		if n, err := s.wal.Prune(seq); err != nil {
			s.logf("wal prune: %v", err)
		} else if n > 0 {
			s.logf("pruned %d wal segments covered by checkpoint (seq %d)", n, seq)
		}
	}
	return nil
}

// runCheckpointLoop writes checkpoints on the configured period, switching
// to capped exponential backoff while they fail. Failures feed the health
// state: enough of them degrade the server (a checkpoint that cannot land
// means recovery would replay an ever-growing log, and disk trouble rarely
// stays confined to one file).
func (s *Server) runCheckpointLoop(stop chan struct{}) {
	defer s.loops.Done()
	delay := s.opt.CheckpointEvery
	t := time.NewTimer(delay)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := s.saveCheckpoint(); err != nil {
				fails := s.health.noteCkpt(err)
				delay = s.backoffDelay(fails)
				s.logf("checkpoint failed (%d consecutive): %v — retrying in %v", fails, err, delay)
			} else {
				s.health.noteCkpt(nil)
				delay = s.opt.CheckpointEvery
				s.logf("checkpoint written to %s", s.opt.CheckpointPath)
			}
			t.Reset(delay)
		}
	}
}

// runWALLoop is the log's maintenance heartbeat: under SyncInterval it
// flushes the tail on the configured period, and whenever appends have been
// failing it probes the log with Sync — which rotates to a fresh segment on
// a tainted log — so a recovered disk brings the server back without
// waiting for a client to retry.
func (s *Server) runWALLoop(stop chan struct{}) {
	defer s.loops.Done()
	t := time.NewTimer(s.opt.WALSyncEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, walFails, _, _ := s.health.state(s.opt.FailureThreshold)
			if walFails > 0 || s.opt.WALSync == wal.SyncInterval {
				s.health.noteWAL(s.wal.Sync())
			}
			_, walFails, _, _ = s.health.state(s.opt.FailureThreshold)
			if walFails > 0 {
				t.Reset(s.backoffDelay(walFails))
			} else {
				t.Reset(s.opt.WALSyncEvery)
			}
		}
	}
}

// DurabilityStatus is the observability view of the durability machinery,
// served under GET /metricsz next to the per-metric views.
type DurabilityStatus struct {
	// Degraded reports whether ingest is currently being shed; Reason holds
	// the last durability error when it is.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
	// ConsecutiveWALFailures and ConsecutiveCheckpointFailures are the live
	// failure streaks feeding the degraded decision (threshold
	// FailureThreshold).
	ConsecutiveWALFailures        int `json:"consecutiveWalFailures"`
	ConsecutiveCheckpointFailures int `json:"consecutiveCheckpointFailures"`
	// WALEnabled, WALSyncPolicy, WALLastSeq, WALSegments and WALAppended
	// describe the live log.
	WALEnabled    bool   `json:"walEnabled"`
	WALSyncPolicy string `json:"walSyncPolicy,omitempty"`
	WALLastSeq    uint64 `json:"walLastSeq,omitempty"`
	WALSegments   int    `json:"walSegments,omitempty"`
	WALAppended   int64  `json:"walAppended,omitempty"`
}

// durabilityStatus snapshots the health state and WAL stats.
func (s *Server) durabilityStatus() DurabilityStatus {
	degraded, walFails, ckptFails, lastErr := s.health.state(s.opt.FailureThreshold)
	st := DurabilityStatus{
		Degraded:                      degraded,
		ConsecutiveWALFailures:        walFails,
		ConsecutiveCheckpointFailures: ckptFails,
	}
	if degraded {
		st.Reason = lastErr
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WALEnabled = true
		st.WALSyncPolicy = ws.SyncPolicy
		st.WALLastSeq = ws.LastSeq
		st.WALSegments = ws.Segments
		st.WALAppended = ws.Appended
	}
	return st
}

// retryAfterSeconds is the Retry-After hint sent with 429 and 503: the
// current backoff horizon, rounded up to whole seconds.
func (s *Server) retryAfterSeconds() int {
	_, walFails, ckptFails, _ := s.health.state(s.opt.FailureThreshold)
	fails := walFails
	if ckptFails > fails {
		fails = ckptFails
	}
	if fails < 1 {
		fails = 1
	}
	secs := int((s.backoffDelay(fails) + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
