package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"

	"mrl/quantile"
)

// MRLS — the node→coordinator snapshot-transfer format cluster mode speaks.
//
// A snapshot document is the complete all-time estimator state of one
// metric on one node, frozen as transferable parts
// (quantile.EstimatorSnapshot):
//
//	prologue: 'M' 'R' 'L' 'S' version(=1) 0 0 0
//	frames:   zero or more part frames
//
// Each frame reuses the MRLB framing discipline — little-endian
// [payloadLen u32][crc32c u32][payload], payload a positive multiple of 8
// bytes, CRC32-Castagnoli over the payload. A part frame's payload is:
//
//	off 0: type        u8  = 1 (part)
//	off 1: backendLen  u8  (>= 1)
//	off 2: reserved    u16 (zero)
//	off 4: blobLen     u32 (>= 1)
//	off 8: count       u64 (>= 1, fits int64)
//	off 16: backend    backendLen bytes
//	then:   blob       blobLen bytes — the estimator's MarshalBinary output
//	then:   zero pad to a multiple of 8
//
// The format is canonical: every reserved and pad byte must be zero and
// every length must be exact, so DecodeSnapshot(EncodeSnapshot(parts))
// round-trips bit-exact and FuzzClusterSnapshotFrame can assert
// decode→re-encode identity on every accepted input. A metric with no data
// encodes as the bare prologue — "alive and empty" is a valid, certified
// answer, distinct from an unreachable node.
const (
	snapMagic         = "MRLS"
	snapVersion       = 1
	snapPrologueLen   = 8
	snapFramePart     = 1
	snapPartHeaderLen = 16
)

// AppendSnapshotPrologue appends the 8-byte MRLS prologue.
func AppendSnapshotPrologue(buf []byte) []byte {
	return append(buf, snapMagic[0], snapMagic[1], snapMagic[2], snapMagic[3], snapVersion, 0, 0, 0)
}

// EncodeSnapshot serialises parts as one canonical MRLS document.
func EncodeSnapshot(parts []quantile.EstimatorSnapshot) ([]byte, error) {
	size := snapPrologueLen
	for _, p := range parts {
		size += binFrameHeaderLen + snapPartHeaderLen + len(p.Backend) + len(p.Blob) + 7
	}
	buf := AppendSnapshotPrologue(make([]byte, 0, size))
	for i, p := range parts {
		if p.Backend == "" || len(p.Backend) > 255 {
			return nil, fmt.Errorf("serve: snapshot part %d: backend %q must be 1..255 bytes", i, p.Backend)
		}
		if p.Count < 1 {
			return nil, fmt.Errorf("serve: snapshot part %d: count %d must be positive", i, p.Count)
		}
		if len(p.Blob) == 0 {
			return nil, fmt.Errorf("serve: snapshot part %d: empty blob", i)
		}
		raw := snapPartHeaderLen + len(p.Backend) + len(p.Blob)
		if raw+pad8(raw) > maxBinFramePayload {
			return nil, fmt.Errorf("serve: snapshot part %d: %d-byte blob exceeds the frame limit", i, len(p.Blob))
		}
		payload := make([]byte, snapPartHeaderLen, raw+pad8(raw))
		payload[0] = snapFramePart
		payload[1] = byte(len(p.Backend))
		binary.LittleEndian.PutUint32(payload[4:], uint32(len(p.Blob)))
		binary.LittleEndian.PutUint64(payload[8:], uint64(p.Count))
		payload = append(payload, p.Backend...)
		payload = append(payload, p.Blob...)
		payload = append(payload, zeroPad[:pad8(len(payload))]...)
		buf = appendBinFrame(buf, payload)
	}
	return buf, nil
}

// DecodeSnapshot parses a complete MRLS document. It never panics on
// arbitrary input and accepts only the canonical form — any torn frame,
// CRC mismatch, nonzero reserved/pad byte, inexact length, or trailing
// garbage is an ErrBadFrame, and so is a backend tag quantile.ParseBackend
// does not accept as written.
func DecodeSnapshot(b []byte) ([]quantile.EstimatorSnapshot, error) {
	if len(b) < snapPrologueLen {
		return nil, fmt.Errorf("%w: torn snapshot prologue (%d bytes)", ErrBadFrame, len(b))
	}
	if string(b[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrBadFrame)
	}
	if b[4] != snapVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrBadFrame, b[4])
	}
	if err := checkZero(b[5:snapPrologueLen], "snapshot prologue"); err != nil {
		return nil, err
	}
	b = b[snapPrologueLen:]
	var parts []quantile.EstimatorSnapshot
	for len(b) > 0 {
		if len(b) < binFrameHeaderLen {
			return nil, fmt.Errorf("%w: torn snapshot frame header (%d bytes)", ErrBadFrame, len(b))
		}
		plen, crc, err := parseBinFrameHeader(b[:binFrameHeaderLen])
		if err != nil {
			return nil, err
		}
		if len(b) < binFrameHeaderLen+plen {
			return nil, fmt.Errorf("%w: torn snapshot frame payload (%d of %d bytes)", ErrBadFrame, len(b)-binFrameHeaderLen, plen)
		}
		payload := b[binFrameHeaderLen : binFrameHeaderLen+plen]
		if crc32.Checksum(payload, castagnoliBin) != crc {
			return nil, fmt.Errorf("%w: snapshot frame CRC mismatch", ErrBadFrame)
		}
		part, err := parseSnapshotPart(payload)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
		b = b[binFrameHeaderLen+plen:]
	}
	return parts, nil
}

// parseSnapshotPart decodes one CRC-verified part payload.
func parseSnapshotPart(p []byte) (quantile.EstimatorSnapshot, error) {
	var none quantile.EstimatorSnapshot
	if len(p) < snapPartHeaderLen {
		return none, fmt.Errorf("%w: short snapshot part payload", ErrBadFrame)
	}
	if p[0] != snapFramePart {
		return none, fmt.Errorf("%w: unknown snapshot frame type %d", ErrBadFrame, p[0])
	}
	backendLen := int(p[1])
	if backendLen == 0 {
		return none, fmt.Errorf("%w: empty snapshot backend", ErrBadFrame)
	}
	if err := checkZero(p[2:4], "snapshot part reserved"); err != nil {
		return none, err
	}
	blobLen := int(binary.LittleEndian.Uint32(p[4:]))
	if blobLen == 0 {
		return none, fmt.Errorf("%w: empty snapshot blob", ErrBadFrame)
	}
	count := binary.LittleEndian.Uint64(p[8:])
	if count == 0 || count > math.MaxInt64 {
		return none, fmt.Errorf("%w: snapshot count %d out of range", ErrBadFrame, count)
	}
	raw := snapPartHeaderLen + backendLen + blobLen
	if len(p) != raw+pad8(raw) {
		return none, fmt.Errorf("%w: snapshot part length %d does not match declared %d", ErrBadFrame, len(p), raw)
	}
	if err := checkZero(p[raw:], "snapshot part pad"); err != nil {
		return none, err
	}
	tag := string(p[snapPartHeaderLen : snapPartHeaderLen+backendLen])
	backend, err := quantile.ParseBackend(tag)
	if err != nil || string(backend) != tag {
		return none, fmt.Errorf("%w: snapshot backend %q", ErrBadFrame, tag)
	}
	return quantile.EstimatorSnapshot{
		Backend: backend,
		Count:   int64(count),
		Blob:    append([]byte(nil), p[snapPartHeaderLen+backendLen:raw]...),
	}, nil
}

// SnapshotParts freezes a metric's complete all-time state — one part, its
// summary — in transferable form, after the read-your-acks drain barrier
// every query path runs. An existing metric with no data returns zero
// parts; an unknown metric returns ErrUnknownMetric, so a coordinator can
// tell "empty here" from "never heard of it" from "unreachable".
func (r *Registry) SnapshotParts(name string) ([]quantile.EstimatorSnapshot, error) {
	m := r.get(name)
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	m.q.drain(m)
	s, err := m.snapshot()
	if err != nil || s.Count == 0 {
		return nil, err
	}
	return []quantile.EstimatorSnapshot{s}, nil
}

// handleSnapshot serves GET /snapshot?metric=name: the metric's complete
// all-time state as an MRLS document for a cluster coordinator to merge.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("metric")
	parts, err := s.reg.SnapshotParts(name)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	body, err := EncodeSnapshot(parts)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body)
}
