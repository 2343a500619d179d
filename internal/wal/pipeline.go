package wal

import (
	"fmt"
	"sync"
)

// The append path: AppendPipelined enqueues a batch and blocks until a
// shared committer goroutine has made it durable, so many concurrent
// producers pay for one fsync per *group* instead of one per batch. While one group's fsync is in flight the next group accumulates —
// the classic group-commit pipeline — without weakening what an ack means:
// under SyncEveryBatch a nil return still means "this batch is on stable
// storage".
//
// Group boundaries are aligned to segment boundaries on purpose: the
// committer syncs everything it wrote to the current segment *before*
// rotating to the next one. rotateLocked's best-effort seal sync is only
// safe because acked frames are already durable; a group spanning a
// rotation would launder a seal-sync failure into a false ack, so the
// committer never lets unacked frames cross one.

// pipeReq is one producer's queued batch: the caller blocks on done until
// the committer reports the batch's fate.
type pipeReq struct {
	metric string
	values []float64
	sid    uint64 // binary ingest session id (0 = plain record)
	cseq   uint64 // per-session client sequence number
	seq    uint64
	done   chan error
}

// pipeline is the group-commit state, attached lazily to a Log on the
// first AppendPipelined call.
type pipeline struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*pipeReq
	stop    bool
	done    chan struct{}
}

// pipe returns the log's pipeline, creating it (and its committer
// goroutine) on first use.
func (l *Log) pipe() *pipeline {
	l.pipeOnce.Do(func() {
		p := &pipeline{done: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		l.pipeState = p
		go l.runCommitter(p)
	})
	return l.pipeState
}

// AppendPipelined logs one batch through the group-commit pipeline and
// blocks until the batch's fate is known, returning its sequence number.
// Under SyncEveryBatch a nil return means the batch is durable — the fsync
// is merely shared with whatever other batches were in flight at the same
// time; under the other policies it means the batch is in the OS pipeline.
// A non-nil return means the batch must NOT be acknowledged: the segment is
// tainted and the next write starts a fresh one, and the failed frame keeps
// its (now skipped) sequence number — it may still surface at replay if the
// kernel flushed it anyway, the usual at-least-once caveat on failed acks,
// but it can never shadow a later acked frame. The values slice is not
// retained past the call.
func (l *Log) AppendPipelined(metric string, values []float64) (uint64, error) {
	return l.AppendPipelinedSeq(metric, values, 0, 0)
}

// AppendPipelinedSeq is AppendPipelined for a batch acknowledged to a
// sessioned binary ingest client: the record additionally carries the
// client's (session id, seq) pair, which Replay hands back so recovery can
// rebuild the dedup high-water marks; sid == 0 writes a plain record. The
// dedup record rides the same group commit as every other in-flight batch —
// including across a segment rotation, where the committer syncs (and acks)
// the run that precedes the boundary before the record lands in the fresh
// segment.
func (l *Log) AppendPipelinedSeq(metric string, values []float64, sid, cseq uint64) (uint64, error) {
	if metric == "" || len(metric) > 1<<16-1 {
		return 0, fmt.Errorf("wal: metric name length %d outside [1, 65535]", len(metric))
	}
	p := l.pipe()
	if p == nil {
		// Close pinned the Once before any pipeline existed.
		return 0, ErrClosed
	}
	r := &pipeReq{metric: metric, values: values, sid: sid, cseq: cseq, done: make(chan error, 1)}
	p.mu.Lock()
	if p.stop {
		p.mu.Unlock()
		return 0, ErrClosed
	}
	p.pending = append(p.pending, r)
	p.cond.Signal()
	p.mu.Unlock()
	err := <-r.done
	return r.seq, err
}

// runCommitter is the single committer goroutine: it drains whatever
// accumulated while the previous group was being written and fsynced, and
// commits it as the next group. It exits after Close has stopped the
// pipeline and the queue is empty.
func (l *Log) runCommitter(p *pipeline) {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && !p.stop {
			p.cond.Wait()
		}
		group := p.pending
		p.pending = nil
		stop := p.stop
		p.mu.Unlock()
		if len(group) > 0 {
			l.commitGroup(group)
		}
		if stop && len(group) == 0 {
			return
		}
	}
}

// stopPipeline stops the committer, letting it drain every queued batch
// first, and rejects later producers with ErrClosed. Safe to call with no
// pipeline running.
func (l *Log) stopPipeline() {
	l.pipeOnce.Do(func() {}) // pin: no new pipeline after this point
	p := l.pipeState
	if p == nil {
		return
	}
	p.mu.Lock()
	already := p.stop
	p.stop = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if !already {
		<-p.done
	}
}

// commitGroup writes and acks one group under l.mu. Frames are written in
// order into the current segment; before a rotation (or at the end of the
// group) everything written so far is fsynced with the error checked, and
// only then acked — so no acked frame ever depends on rotateLocked's
// best-effort seal sync. A failed write or sync fails the affected
// requests, consumes their sequence numbers (their bytes may surface at
// replay anyway — the usual failed-ack caveat), and taints the segment so
// the next run starts fresh.
func (l *Log) commitGroup(group []*pipeReq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		for _, r := range group {
			r.done <- ErrClosed
		}
		return
	}
	i := 0
	for i < len(group) {
		// written collects this run: frames in the current segment awaiting
		// one shared fsync.
		var written []*pipeReq
		for i < len(group) {
			r := group[i]
			frame := encodeFrame(l.nextSeq, r.metric, r.values, r.sid, r.cseq)
			if len(frame) > maxRecordBytes {
				r.done <- fmt.Errorf("wal: %d-byte record exceeds %d-byte frame cap", len(frame), maxRecordBytes)
				i++
				continue
			}
			if l.f == nil || l.tainted ||
				(l.curSize > segHeaderLen && l.curSize+int64(len(frame)) > l.opt.SegmentBytes) {
				if len(written) > 0 {
					break // sync (and ack) this run before rotating
				}
				if err := l.rotateLocked(); err != nil {
					r.done <- err
					i++
					continue
				}
			}
			n, err := l.f.Write(frame)
			l.curSize += int64(n)
			if err != nil {
				l.tainted = true
				l.nextSeq++
				r.done <- fmt.Errorf("wal: append: %w", err)
				i++
				break // the torn tail ends this run; sync what preceded it
			}
			r.seq = l.nextSeq
			l.nextSeq++
			written = append(written, r)
			i++
		}
		if len(written) == 0 {
			continue
		}
		if l.opt.Sync == SyncEveryBatch {
			// One checked fsync covers the whole run — even after a later
			// write in the same segment tore: the run's frames precede the
			// torn tail, so replay recovers them intact.
			if err := l.f.Sync(); err != nil {
				l.tainted = true
				serr := fmt.Errorf("wal: sync: %w", err)
				for _, r := range written {
					r.done <- serr
				}
				continue
			}
		}
		for _, r := range written {
			l.curLast = r.seq
			l.appended++
			r.done <- nil
		}
	}
}
