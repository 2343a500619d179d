package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mrl/internal/faultfs"
)

// Record is one replayed batch. Session and SessionSeq are the binary
// ingest client's (session id, per-session sequence number) pair for
// records written through AppendPipelinedSeq; both are zero for plain
// records.
// Recovery uses the pair to rebuild dedup high-water marks and to skip a
// duplicate — the same (Session, SessionSeq) can legitimately appear twice
// in the log when a failed append's bytes reached the disk anyway and the
// client's retry was logged again.
type Record struct {
	Seq        uint64
	Metric     string
	Values     []float64
	Session    uint64
	SessionSeq uint64
}

// ReplayStats summarises one recovery pass.
type ReplayStats struct {
	// LastSeq is the highest valid sequence number seen (replayed or
	// skipped); appends resume after it.
	LastSeq uint64
	// Replayed counts records delivered to the callback (seq > after).
	Replayed int
	// Skipped counts valid records already covered by the checkpoint.
	Skipped int
	// Truncated counts segments cut short at a torn or corrupt frame.
	Truncated int
	// Segments counts segment files visited.
	Segments int
}

// Replay reads the log under dir in segment order and calls fn for every
// valid record with sequence number greater than after — the suffix a
// checkpoint does not cover. A missing directory is an empty log.
//
// Torn tails and corrupt frames are expected after a crash: the first
// invalid frame of a segment ends that segment (everything after it was
// never acknowledged under SyncEveryBatch), and replay continues with the
// next segment. Frames must carry strictly increasing sequence numbers; a
// regression is treated as corruption. Filesystem errors and callback
// errors abort the replay and are returned.
func Replay(fsys faultfs.FS, dir string, after uint64, fn func(Record) error) (ReplayStats, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	var st ReplayStats
	segs, err := listSegments(fsys, dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return st, err
	}
	var lastSeen uint64
	for _, seg := range segs {
		sc, err := readSegment(fsys, seg.path, after, &lastSeen, fn)
		if err != nil {
			return st, err
		}
		st.Segments++
		st.Replayed += sc.replayed
		st.Skipped += sc.skipped
		if sc.truncated {
			st.Truncated++
		}
	}
	st.LastSeq = lastSeen
	return st, nil
}

// segRef is one segment file found on disk.
type segRef struct {
	index int
	path  string
}

// listSegments returns the wal-NNNNNNNN.seg files under dir in index order,
// ignoring anything else (temp files, strays).
func listSegments(fsys faultfs.FS, dir string) ([]segRef, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := make([]segRef, 0, len(names))
	for _, name := range names {
		idx, ok := parseSegName(name)
		if !ok {
			continue
		}
		segs = append(segs, segRef{index: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"))
	if err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// segScan is the outcome of reading one segment.
type segScan struct {
	lastSeq   uint64 // last valid seq in this segment, 0 if none
	replayed  int
	skipped   int
	truncated bool
}

// readSegment walks one segment's frames, stopping (not failing) at the
// first torn or corrupt frame. lastSeen carries the monotonic sequence
// check across segments. fn may be nil for a scan-only pass.
func readSegment(fsys faultfs.FS, path string, after uint64, lastSeen *uint64, fn func(Record) error) (segScan, error) {
	var sc segScan
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return sc, nil
		}
		return sc, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	// A big read buffer keeps recovery off the syscall path: segments are
	// tens of megabytes and replay is throughput-bound.
	br := bufio.NewReaderSize(f, 1<<20)

	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil ||
		string(hdr[:len(segMagic)]) != segMagic || hdr[len(segMagic)] != segVersion {
		// A segment without a complete header was torn at creation; it
		// cannot hold acked frames.
		sc.truncated = true
		return sc, nil
	}

	frameHdr := make([]byte, frameHeaderLen)
	var payload []byte // reused across frames; parseRecord copies out of it
	for {
		if _, err := io.ReadFull(br, frameHdr); err != nil {
			if err != io.EOF {
				sc.truncated = true // torn mid-frame-header
			}
			return sc, nil
		}
		payloadLen := binary.LittleEndian.Uint32(frameHdr[0:])
		if payloadLen < minPayload || payloadLen > maxRecordBytes {
			sc.truncated = true
			return sc, nil
		}
		if uint32(cap(payload)) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			sc.truncated = true
			return sc, nil
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frameHdr[4:]) {
			sc.truncated = true
			return sc, nil
		}
		rec, ok := parseRecord(payload)
		if !ok || rec.Seq <= *lastSeen {
			sc.truncated = true
			return sc, nil
		}
		*lastSeen = rec.Seq
		sc.lastSeq = rec.Seq
		if rec.Seq <= after {
			sc.skipped++
			continue
		}
		sc.replayed++
		if fn != nil {
			if err := fn(rec); err != nil {
				return sc, fmt.Errorf("wal: replaying seq %d: %w", rec.Seq, err)
			}
		}
	}
}

// parseRecord decodes one CRC-verified payload. It still validates shape
// and content (a CRC only proves the bytes are what was written, not that
// what was written is sane): lengths must be consistent and values must be
// ingestible, i.e. no NaN.
func parseRecord(p []byte) (Record, bool) {
	if len(p) < minPayload || (p[8] != recBatch && p[8] != recBatchSeq) {
		return Record{}, false
	}
	sessioned := p[8] == recBatchSeq
	nameLen := int(binary.LittleEndian.Uint16(p[9:]))
	if nameLen == 0 || len(p) < 11+nameLen+4 {
		return Record{}, false
	}
	metric := string(p[11 : 11+nameLen])
	off := 11 + nameLen
	var sid, cseq uint64
	if sessioned {
		if len(p) < off+seqFieldsLen+4 {
			return Record{}, false
		}
		sid = binary.LittleEndian.Uint64(p[off:])
		cseq = binary.LittleEndian.Uint64(p[off+8:])
		off += seqFieldsLen
		// A sessioned record exists only because a sessioned client sent
		// it; sid 0 is the reserved "no session" value and cannot appear.
		if sid == 0 || cseq == 0 {
			return Record{}, false
		}
	}
	count := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if len(p) != off+8*count {
		return Record{}, false
	}
	values := make([]float64, count)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		if math.IsNaN(values[i]) {
			return Record{}, false
		}
		off += 8
	}
	return Record{
		Seq:        binary.LittleEndian.Uint64(p[0:]),
		Metric:     metric,
		Values:     values,
		Session:    sid,
		SessionSeq: cseq,
	}, true
}
