package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"mrl/internal/faultfs"
	"mrl/quantile"
)

// Checkpoint layout (little endian):
//
//	magic "MRLD" | version u8 (4) | walSeq u64 | metricCount u32
//	per metric (sorted by name):
//	  nameLen u16 | name | backendLen u8 | backend | blobCount u32
//	  per blob: blobLen u32 | blob
//	sessionCount u32
//	per session (sorted by id): sessionID u64 | highWater u64
//
// walSeq is the write-ahead-log position the checkpoint covers: every WAL
// record with sequence number <= walSeq is already folded into the sketches
// below, so recovery replays only the suffix. The trailing table holds the
// binary ingest sessions' dedup high-water marks.
//
// Each blob is an estimator of the metric's backend in its MarshalBinary
// wire format, so a checkpoint is just a named bundle of the library's
// existing serialised summaries. The writer emits one blob per non-empty
// metric (its all-time summary) and none for an empty one; Restore absorbs
// any further blob of a metric into the first.
const (
	ckptMagic   = "MRLD"
	ckptVersion = 4
	// ckptMaxBlob caps one serialised sketch; real sketches are tens of
	// kilobytes, so this only rejects corrupt headers early.
	ckptMaxBlob = 1 << 30
)

// snapshot serialises the metric's all-time summary under its lock,
// leaving it live; an empty summary yields the zero snapshot.
func (m *metric) snapshot() (quantile.EstimatorSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.all.Count() == 0 {
		return quantile.EstimatorSnapshot{}, nil
	}
	snap, err := quantile.SnapshotEstimator(m.all)
	if err != nil {
		return quantile.EstimatorSnapshot{}, fmt.Errorf("serve: serialising %q: %w", m.name, err)
	}
	return snap, nil
}

// WriteCheckpoint serialises every metric and writes one checkpoint to w,
// covering WAL position walSeq (0 for registries without a log).
// Ingestion may continue concurrently; each metric is cut atomically, one
// metric at a time. Callers that need the cut to be exact against walSeq
// must stop ingestion around the call — Server does, via its ingest gate.
func (r *Registry) WriteCheckpoint(w io.Writer, walSeq uint64) error {
	// Checkpoint barrier: fold every acked-but-unapplied batch in before
	// serialising. Under the Server's exclusive ingest gate no new enqueues can
	// race this, so the encoded sketches contain exactly the batches at or
	// below walSeq; library callers without a gate get a per-metric-atomic
	// cut.
	r.drainAll()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(ckptVersion); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, walSeq); err != nil {
		return err
	}
	names := r.Names()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		m := r.get(name)
		if m == nil {
			return fmt.Errorf("%w: %q vanished during checkpoint", ErrUnknownMetric, name)
		}
		snap, err := m.snapshot()
		if err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		backend := string(m.backend)
		if err := bw.WriteByte(byte(len(backend))); err != nil {
			return err
		}
		if _, err := bw.WriteString(backend); err != nil {
			return err
		}
		if snap.Count == 0 {
			if err := binary.Write(bw, binary.LittleEndian, uint32(0)); err != nil {
				return err
			}
			continue
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(1)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(snap.Blob))); err != nil {
			return err
		}
		if _, err := bw.Write(snap.Blob); err != nil {
			return err
		}
	}
	marks := r.sessions.marks()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(marks))); err != nil {
		return err
	}
	for _, mk := range marks {
		if err := binary.Write(bw, binary.LittleEndian, mk.sid); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, mk.hw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeCheckpoint renders the checkpoint into memory. The encoding is the
// snapshot: once it returns, the sketches may keep moving without affecting
// what will land on disk.
func (r *Registry) encodeCheckpoint(walSeq uint64) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteCheckpoint(&buf, walSeq); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeCheckpointFile lands data at path atomically and durably: temp
// sibling, fsync the file, rename over the target, fsync the directory.
// Skipping any of those syncs leaves a window where a crash forgets the
// checkpoint (unsynced content) or the rename itself (unsynced dir entry).
func writeCheckpointFile(fsys faultfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// SaveCheckpointFS encodes a checkpoint covering walSeq and writes it to
// path atomically through fsys (nil means the real filesystem).
func (r *Registry) SaveCheckpointFS(fsys faultfs.FS, path string, walSeq uint64) error {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	data, err := r.encodeCheckpoint(walSeq)
	if err != nil {
		return err
	}
	return writeCheckpointFile(fsys, path, data)
}

// SaveCheckpoint writes a checkpoint to path atomically, covering no WAL
// (position 0). A crash mid-write never corrupts the last good checkpoint.
func (r *Registry) SaveCheckpoint(path string) error {
	return r.SaveCheckpointFS(nil, path, 0)
}

// Restore reads a checkpoint into the metrics' all-time summaries and
// returns the WAL position it covers, so the caller can replay only the log
// suffix. Metrics are created as needed. A metric's first blob becomes its
// live summary when the metric is empty, whatever its geometry (the
// a-posteriori bound stays truthful if the contract changed since the
// checkpoint); any further blob, and a restore on top of live data, is
// absorbed into it. Blobs that cannot absorb into each other (MRL summaries
// of different geometries) fail the restore with an error naming the metric
// and both geometries. Tumbling windows are deliberately not checkpointed —
// they describe "recent" data, which a restart makes stale by definition —
// so restored metrics start with empty rings.
func (r *Registry) Restore(src io.Reader) (uint64, error) {
	br := bufio.NewReader(src)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != ckptMagic {
		return 0, errors.New("serve: bad checkpoint magic")
	}
	version, err := br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
	}
	if version != ckptVersion {
		return 0, fmt.Errorf("serve: unsupported checkpoint version %d", version)
	}
	var walSeq uint64
	if err := binary.Read(br, binary.LittleEndian, &walSeq); err != nil {
		return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
	}
	var nMetrics uint32
	if err := binary.Read(br, binary.LittleEndian, &nMetrics); err != nil {
		return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
	}
	// Restore in three phases: parse the file and create the metrics
	// sequentially (error fidelity and creation order unchanged), decode
	// each metric's blobs into one summary concurrently — the CPU-heavy part
	// of a cold start — then install the summaries in file order, so the
	// result is deterministic and identical to a fully sequential restore.
	type restoreMetric struct {
		name  string
		m     *metric
		be    quantile.Backend
		blobs [][]byte
		est   quantile.Estimator
		err   error
	}
	items := make([]*restoreMetric, 0, nMetrics)
	for i := uint32(0); i < nMetrics; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		name := string(nameBytes)
		tagLen, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		tag := make([]byte, tagLen)
		if _, err := io.ReadFull(br, tag); err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		backend, err := quantile.ParseBackend(string(tag))
		if err != nil {
			return 0, fmt.Errorf("serve: restoring %q: %w: %v", name, ErrInvalidBackend, err)
		}
		var nBlobs uint32
		if err := binary.Read(br, binary.LittleEndian, &nBlobs); err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		m, err := r.getOrCreateBackend(name, backend)
		if err != nil {
			return 0, fmt.Errorf("serve: restoring %q: %w", name, err)
		}
		it := &restoreMetric{name: name, m: m, be: backend, blobs: make([][]byte, 0, nBlobs)}
		for j := uint32(0); j < nBlobs; j++ {
			var blobLen uint32
			if err := binary.Read(br, binary.LittleEndian, &blobLen); err != nil {
				return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
			}
			if blobLen > ckptMaxBlob {
				return 0, fmt.Errorf("serve: implausible %d-byte sketch in checkpoint", blobLen)
			}
			blob := make([]byte, blobLen)
			if _, err := io.ReadFull(br, blob); err != nil {
				return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
			}
			it.blobs = append(it.blobs, blob)
		}
		items = append(items, it)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, it := range items {
		if len(it.blobs) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(it *restoreMetric) {
			defer wg.Done()
			defer func() { <-sem }()
			it.est, it.err = decodeSummary(it.be, it.blobs)
		}(it)
	}
	wg.Wait()
	for _, it := range items {
		if it.err == nil && it.est != nil {
			it.err = it.m.restore(it.est)
		}
		if it.err != nil {
			return 0, fmt.Errorf("serve: restoring %q: %w", it.name, it.err)
		}
	}
	var nSessions uint32
	if err := binary.Read(br, binary.LittleEndian, &nSessions); err != nil {
		return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
	}
	for i := uint32(0); i < nSessions; i++ {
		var sid, hw uint64
		if err := binary.Read(br, binary.LittleEndian, &sid); err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		if err := binary.Read(br, binary.LittleEndian, &hw); err != nil {
			return 0, fmt.Errorf("serve: truncated checkpoint: %w", err)
		}
		if sid == 0 || hw == 0 {
			return 0, fmt.Errorf("serve: zero session id or high-water mark in checkpoint")
		}
		r.sessions.restoreMark(sid, hw)
	}
	// The format is self-delimiting; trailing garbage means the file was
	// not produced by WriteCheckpoint.
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, errors.New("serve: trailing bytes in checkpoint")
	}
	return walSeq, nil
}

// decodeSummary decodes one metric's checkpoint blobs into one summary: the
// first blob as decoded, every further one absorbed into it.
func decodeSummary(b quantile.Backend, blobs [][]byte) (quantile.Estimator, error) {
	var out quantile.Estimator
	for _, blob := range blobs {
		e, err := quantile.EmptyEstimator(b)
		if err != nil {
			return nil, err
		}
		if err := e.UnmarshalBinary(blob); err != nil {
			return nil, err
		}
		if out == nil {
			out = e
		} else if err := out.Absorb(e); err != nil {
			return nil, fmt.Errorf("checkpoint summaries do not combine: %w", err)
		}
	}
	return out, nil
}

// restore installs a decoded checkpoint summary: as the live summary when
// the metric holds nothing yet, else absorbed into it.
func (m *metric) restore(e quantile.Estimator) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen.Add(1) // restored data changes query answers; bumped under the lock, see apply
	if m.all.Count() == 0 {
		m.all = e
	} else if err := m.all.Absorb(e); err != nil {
		return fmt.Errorf("checkpoint summary does not combine with live data: %w", err)
	}
	m.restoredCount += e.Count()
	return nil
}

// LoadCheckpointFS restores from the file at path through fsys (nil means
// the real filesystem), returning the WAL position the checkpoint covers.
// A missing file is reported via fs.ErrNotExist so callers can treat it as
// a fresh start.
func (r *Registry) LoadCheckpointFS(fsys faultfs.FS, path string) (uint64, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	walSeq, err := r.Restore(f)
	if err != nil {
		return 0, fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return walSeq, nil
}

// LoadCheckpoint is LoadCheckpointFS on the real filesystem.
func (r *Registry) LoadCheckpoint(path string) (uint64, error) {
	return r.LoadCheckpointFS(nil, path)
}
