// Package wal is a segmented, CRC32C-framed write-ahead log for ingest
// batches, the durability floor under the serving layer: the paper's
// framework is single-pass, so an observation lost in a crash can never be
// re-read — a batch must not be acknowledged until the log says it is safe.
//
// Each record carries one (metric, values) batch with a monotonically
// increasing sequence number. The append path supports three sync
// policies — fsync every batch (acked ⇒ durable), fsync on an interval
// (acked batches may lose up to one interval), or never (the OS decides) —
// and rotates to a fresh segment once the current one exceeds the
// configured size. Recovery reads the segments in order, verifies each
// frame's CRC, and truncates at the first torn or corrupt frame of a
// segment, so a crash mid-write costs at most the un-acked tail.
// Checkpoints record the sequence number they cover; replay applies only
// the suffix, and sealed segments at or below the covered sequence are
// pruned.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mrl/internal/faultfs"
)

const (
	segMagic   = "MRLW"
	segVersion = 1
	// segHeaderLen is magic + version.
	segHeaderLen = 5
	// frameHeaderLen is payload length u32 + CRC32C u32.
	frameHeaderLen = 8
	// recBatch is the original record type: one (metric, values) batch with
	// no client identity. The type byte exists so record kinds stay
	// wire-compatible.
	recBatch = 1
	// recBatchSeq is a batch that additionally carries the binary ingest
	// client's (session id, per-session sequence number) pair, inserted
	// between the metric name and the value count. Replay threads the pair
	// back to the caller so the serving layer can rebuild its dedup
	// high-water marks — and skip a record whose (session, seq) it has
	// already applied, which happens when a failed append's bytes reached
	// the disk anyway and the client's retry was logged again.
	recBatchSeq = 2
	// minPayload is seq u64 + type u8 + nameLen u16 + count u32.
	minPayload = 15
	// seqFieldsLen is the extra session id u64 + client seq u64 of a
	// recBatchSeq record.
	seqFieldsLen = 16
	// maxRecordBytes bounds one framed payload; anything larger in a
	// segment is corruption, not data.
	maxRecordBytes = 64 << 20

	// DefaultSegmentBytes is the rotation threshold when Options leaves it
	// zero.
	DefaultSegmentBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended frames are fsynced, i.e. what an ack
// means.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs before AppendPipelined returns: an acked batch is
	// durable. The default, and the only policy under which the crash
	// harness's zero-loss invariant holds.
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval leaves fsync to a periodic Sync call: acked batches may
	// lose up to one interval on a crash.
	SyncInterval
	// SyncOff never fsyncs: the OS flushes whenever it pleases.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "every-batch"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "every-batch":
		return SyncEveryBatch, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want every-batch, interval, or off)", s)
	}
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem seam; nil means the real filesystem.
	FS faultfs.FS
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the ack durability policy.
	Sync SyncPolicy
	// LastKnownSeq is a floor for sequence allocation: Open never hands out
	// a sequence number at or below it, even when no segment on disk records
	// it. A checkpoint that covers (and prunes) every segment leaves the
	// directory empty while its "covered through seq N" claim lives on in the
	// checkpoint file; reusing those numbers would make the next recovery
	// skip fresh records as already covered. Callers restoring from a
	// checkpoint must pass its covered sequence number here.
	LastKnownSeq uint64
}

// sealedSeg is one closed segment, remembered for pruning.
type sealedSeg struct {
	index   int
	path    string
	lastSeq uint64 // 0 when the segment holds no valid frames
}

// Log is the writer. All methods are safe for concurrent use.
type Log struct {
	fs  faultfs.FS
	dir string
	opt Options

	mu       sync.Mutex
	f        faultfs.File
	curIndex int
	curPath  string
	curSize  int64
	curLast  uint64
	nextSeq  uint64
	sealed   []sealedSeg
	// tainted marks the current segment's tail as suspect after a failed
	// write or sync: the next append seals it (without syncing the garbage
	// tail) and starts a fresh segment, so un-acked torn frames can never
	// shadow later acked ones at replay.
	tainted  bool
	closed   bool
	appended int64

	// pipeOnce/pipeState lazily attach the group-commit pipeline behind
	// AppendPipelined (see pipeline.go); protected by pipeOnce, not mu.
	pipeOnce  sync.Once
	pipeState *pipeline
}

// Open scans dir for existing segments (tolerating torn tails exactly like
// Replay) to find the last valid sequence number, then starts a fresh
// segment for new appends. Existing segments are left in place until a
// checkpoint prunes them.
func Open(dir string, opt Options) (*Log, error) {
	if opt.FS == nil {
		opt.FS = faultfs.OS{}
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opt.FS, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: opt.FS, dir: dir, opt: opt, nextSeq: 1}
	var lastSeen uint64
	for _, seg := range segs {
		sc, err := readSegment(opt.FS, seg.path, math.MaxUint64, &lastSeen, nil)
		if err != nil {
			return nil, err
		}
		l.sealed = append(l.sealed, sealedSeg{index: seg.index, path: seg.path, lastSeq: sc.lastSeq})
		l.curIndex = seg.index
	}
	if lastSeen < opt.LastKnownSeq {
		lastSeen = opt.LastKnownSeq
	}
	l.nextSeq = lastSeen + 1
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

func segName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// rotateLocked seals the current segment (syncing its tail unless it is
// tainted — a tainted tail holds only frames that were never acked — or the
// policy is SyncOff) and opens the next one. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if !l.tainted && l.opt.Sync != SyncOff {
			// Best effort: frames acked under SyncEveryBatch are already
			// durable; under the relaxed policies a failure here is within
			// the documented loss window.
			_ = l.f.Sync()
		}
		_ = l.f.Close()
		l.sealed = append(l.sealed, sealedSeg{index: l.curIndex, path: l.curPath, lastSeq: l.curLast})
		l.f = nil
	}
	idx := l.curIndex + 1
	path := filepath.Join(l.dir, segName(idx))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.curIndex = idx // do not reuse an index we may have half-created
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = append(hdr, segVersion)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		l.curIndex = idx
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if l.opt.Sync != SyncOff {
		// Make the segment itself durable (content header + dir entry);
		// without this an interval-synced file could vanish whole in a
		// crash even after its content was fsynced.
		if err := f.Sync(); err != nil {
			_ = f.Close()
			l.curIndex = idx
			return fmt.Errorf("wal: segment header sync: %w", err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			_ = f.Close()
			l.curIndex = idx
			return fmt.Errorf("wal: segment dir sync: %w", err)
		}
	}
	l.f = f
	l.curIndex = idx
	l.curPath = path
	l.curSize = segHeaderLen
	l.curLast = 0
	l.tainted = false
	return nil
}

// encodeFrame builds one framed record for seq. A nonzero session id
// produces a recBatchSeq record carrying (sid, cseq); sid == 0 produces the
// original recBatch layout, so logs written by sessionless servers stay
// byte-identical to what they were.
func encodeFrame(seq uint64, metric string, values []float64, sid, cseq uint64) []byte {
	payloadLen := minPayload + len(metric) + 8*len(values)
	if sid != 0 {
		payloadLen += seqFieldsLen
	}
	buf := make([]byte, frameHeaderLen+payloadLen)
	p := buf[frameHeaderLen:]
	binary.LittleEndian.PutUint64(p[0:], seq)
	p[8] = recBatch
	if sid != 0 {
		p[8] = recBatchSeq
	}
	binary.LittleEndian.PutUint16(p[9:], uint16(len(metric)))
	copy(p[11:], metric)
	off := 11 + len(metric)
	if sid != 0 {
		binary.LittleEndian.PutUint64(p[off:], sid)
		binary.LittleEndian.PutUint64(p[off+8:], cseq)
		off += seqFieldsLen
	}
	binary.LittleEndian.PutUint32(p[off:], uint32(len(values)))
	off += 4
	for _, v := range values {
		binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(p, castagnoli))
	return buf
}

// Sync flushes the current segment to stable storage — the periodic call
// under SyncInterval, and the health probe the serving layer uses to decide
// whether a degraded log has recovered. On a tainted log it attempts the
// rotation to a fresh segment instead, restoring writability.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil || l.tainted {
		return l.rotateLocked()
	}
	if err := l.f.Sync(); err != nil {
		l.tainted = true
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// LastSeq returns the sequence number of the last successfully appended
// record, 0 if none.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Prune removes sealed segments whose every record is covered (sequence
// number at or below covered) by a checkpoint, returning how many were
// removed. The live segment is never pruned.
func (l *Log) Prune(covered uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	var firstErr error
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.lastSeq > covered {
			keep = append(keep, s)
			continue
		}
		if err := l.fs.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: pruning %s: %w", s.path, err)
			}
			keep = append(keep, s)
			continue
		}
		removed++
	}
	l.sealed = keep
	if removed > 0 && firstErr == nil {
		if err := l.fs.SyncDir(l.dir); err != nil {
			firstErr = fmt.Errorf("wal: pruning dir sync: %w", err)
		}
	}
	return removed, firstErr
}

// Close seals the current segment. Idempotent. A running group-commit
// pipeline is drained first — queued pipelined batches are committed (or
// failed) before the segment seals, and later AppendPipelined calls get
// ErrClosed.
func (l *Log) Close() error {
	l.stopPipeline()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if !l.tainted && l.opt.Sync != SyncOff {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Stats is the observability view of a Log.
type Stats struct {
	// LastSeq is the sequence number of the last acked record.
	LastSeq uint64 `json:"lastSeq"`
	// Segments counts segment files currently on disk (sealed + live).
	Segments int `json:"segments"`
	// Appended counts records acked in this process's lifetime.
	Appended int64 `json:"appended"`
	// SyncPolicy names the ack durability policy.
	SyncPolicy string `json:"syncPolicy"`
}

// Stats returns the current observability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sealed)
	if l.f != nil {
		n++
	}
	return Stats{
		LastSeq:    l.nextSeq - 1,
		Segments:   n,
		Appended:   l.appended,
		SyncPolicy: l.opt.Sync.String(),
	}
}
