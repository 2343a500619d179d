package serve

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The exactly-once dedup state for binary ingest sessions. Each
// client session id maps to a high-water mark: the highest per-session batch
// sequence number whose values are already applied. A sequenced batch with
// seq <= hw is a retry of something the server already counted — it is
// acknowledged as accepted but not applied again.
//
// Correctness of the single high-water mark (instead of a set of seen seqs)
// rests on a stream discipline enforced in binhandler.go: any batch that
// fails is answered with an error ack and the connection is closed, so
// application within a session is always a contiguous prefix of the client's
// sequence numbers and "seq <= hw" is exactly "already applied".
//
// The table is bounded: least-recently-used idle sessions are evicted past
// sessionTableMax. A client that retries a batch after its session was
// evicted (hours of silence, then a resend) is deduplicated best-effort
// only — see docs/OPERATIONS.md on sizing the window.

// sessionTableMax bounds the number of tracked sessions; one load client
// holds one session, so the default is generous.
const sessionTableMax = 4096

// sessionEntry is one session's dedup state. hw is atomic so checkpoint
// snapshots can read it without taking mu (which an in-flight ingest may
// hold while waiting on the server's ingest gate — ordering mu after the
// gate would deadlock the checkpointer, which holds the gate exclusively).
type sessionEntry struct {
	sid uint64
	// mu serialises the dedup-check → WAL append → apply → advance sequence
	// for this session, so two connections replaying the same session
	// cannot interleave and double-apply.
	mu sync.Mutex
	hw atomic.Uint64

	// touched and refs are owned by sessionTable.mu: LRU stamp and in-use
	// count (an entry in use by a live stream is never evicted).
	touched uint64
	refs    int
}

// sessionTable maps session ids to entries with LRU eviction of idle
// sessions.
type sessionTable struct {
	mu      sync.Mutex
	max     int
	clock   uint64
	entries map[uint64]*sessionEntry
}

func newSessionTable(max int) *sessionTable {
	if max <= 0 {
		max = sessionTableMax
	}
	return &sessionTable{max: max, entries: make(map[uint64]*sessionEntry)}
}

// acquire returns the entry for sid, creating it if needed, and pins it
// against eviction until the matching release.
func (t *sessionTable) acquire(sid uint64) *sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[sid]
	if e == nil {
		t.evictLocked()
		e = &sessionEntry{sid: sid}
		t.entries[sid] = e
	}
	t.clock++
	e.touched = t.clock
	e.refs++
	return e
}

// release unpins an entry acquired earlier.
func (t *sessionTable) release(e *sessionEntry) {
	t.mu.Lock()
	e.refs--
	t.mu.Unlock()
}

// evictLocked drops least-recently-used idle entries until there is room
// for one more. In-use entries (refs > 0) are skipped: evicting the dedup
// state under a live stream would let its next retry double-count.
func (t *sessionTable) evictLocked() {
	for len(t.entries) >= t.max {
		var victim *sessionEntry
		for _, e := range t.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.touched < victim.touched {
				victim = e
			}
		}
		if victim == nil {
			return // every entry is pinned; let the table run over
		}
		delete(t.entries, victim.sid)
	}
}

// replayAdvance is the recovery-time dedup: it reports whether the record
// (sid, cseq) should be applied and, when it should, advances the session's
// high-water mark. Replay is single-threaded, so no entry pinning is needed.
// The same pair legitimately appears twice in a WAL — a failed append's
// bytes can reach the disk anyway and the client's acked retry is logged
// again — and the second occurrence must not double-count.
func (t *sessionTable) replayAdvance(sid, cseq uint64) bool {
	e := t.acquire(sid)
	defer t.release(e)
	if cseq <= e.hw.Load() {
		return false
	}
	e.hw.Store(cseq)
	return true
}

// sessionMark is one checkpointed session: its id and high-water mark.
type sessionMark struct {
	sid uint64
	hw  uint64
}

// marks snapshots the table for a checkpoint, sorted by session id so the
// encoding is deterministic. Reading hw atomically (not under entry mu) is
// safe because the caller holds the server's ingest gate exclusively: no
// ingest can be between "applied" and "hw advanced" at the cut.
func (t *sessionTable) marks() []sessionMark {
	t.mu.Lock()
	out := make([]sessionMark, 0, len(t.entries))
	for sid, e := range t.entries {
		if hw := e.hw.Load(); hw > 0 {
			out = append(out, sessionMark{sid: sid, hw: hw})
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].sid < out[j].sid })
	return out
}

// restoreMark installs a checkpointed high-water mark, keeping the highest
// when the session already exists (restore-then-replay may touch a session
// twice).
func (t *sessionTable) restoreMark(sid, hw uint64) {
	if sid == 0 || hw == 0 {
		return
	}
	e := t.acquire(sid)
	defer t.release(e)
	if hw > e.hw.Load() {
		e.hw.Store(hw)
	}
}

// len reports the number of tracked sessions.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
