package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// The binary ingest wire format ("MRLB"): the raw-speed alternative to
// POST /ingest, carried either as a POST /ingest/bin body or as a
// persistent TCP stream. It reuses the framing idiom of internal/wal —
// length-prefixed, CRC32C-checked frames — with one extra discipline: every
// offset a float64 can live at is 8-byte aligned, so a frame sitting in an
// aligned buffer can hand its value batch to the sketches as a reinterpreted
// []float64 view instead of a decode loop.
//
// A stream is one 8-byte prologue followed by frames:
//
//	prologue  'M' 'R' 'L' 'B'  version (2)  0 0 0
//	frame     [u32 payloadLen][u32 crc32c(payload)][payload]
//
// payloadLen must be a positive multiple of 8 (pad bytes are zero and
// covered by the CRC), so frames — and therefore payloads — stay 8-aligned
// relative to the stream start. The payload's first byte selects the type:
//
//	dict (1)      type u8 | backendLen u8 | nameLen u16 | id u32
//	              | backend | name | zero pad to 8
//	batch (2)     type u8 | flags u8 (bit0 = weighted, bit1 = sequenced)
//	              | zero u16 | id u32 | count u32 | zero u32
//	              | seq u64                            (sequenced only)
//	              | count little-endian f64 values
//	              | count little-endian f64 weights    (weighted only)
//	ack (3)       type u8 | status u8 (0 = ok) | msgLen u16 | accepted u32
//	              | msg | zero pad to 8
//	session (4)   type u8 | zero u8 | zero u16 | zero u32 | sessionID u64
//	sessionAck(5) type u8 | status u8 | zero u16 | zero u32 | highWater u64
//
// A dict frame interns a metric name (and optional backend) under a
// writer-chosen id; batch frames then carry the 4-byte id instead of the
// name. Ids are scoped to one stream. All reserved and pad bytes MUST be
// zero: the format is canonical, so any accepted frame re-encodes to the
// exact bytes it arrived as (the fuzz target holds the decoder to this).
//
// The prologue's version byte is 2. For exactly-once ingest a writer
// declares a nonzero client session id with a session frame; on the TCP carrier the server answers
// with one sessionAck frame carrying the session's durable high-water mark
// — the highest batch sequence number it has already applied — so a
// reconnecting writer can prune its replay queue before resending unacked
// frames. Batch frames may then set the sequenced flag and carry a
// per-session, strictly monotonic (from 1) sequence number: the server
// applies a sequence number at most once, so a retry after a lost ack is
// acknowledged as a duplicate instead of double-counted. Unsequenced
// batches stay legal, with or without a session; their retry after a lost
// ack may double-count (see the ack status taxonomy in binhandler.go).
//
// Servers answer each batch frame of a TCP stream with one ack frame, in
// order. Within the HTTP carrier the response is the usual JSON ingest
// reply and ack frames never appear (session frames are still honoured, so
// a retried POST /ingest/bin body with sequenced batches is idempotent).
const (
	binMagic          = "MRLB"
	binVersion        = 2
	binPrologueLen    = 8
	binFrameHeaderLen = 8 // payloadLen u32 + crc32c u32

	binFrameDict       = 1
	binFrameBatch      = 2
	binFrameAck        = 3
	binFrameSession    = 4
	binFrameSessionAck = 5

	binDictHeaderLen   = 8
	binBatchHeaderLen  = 16
	binAckHeaderLen    = 8
	binSessionFrameLen = 16

	binFlagWeighted = 1
	binFlagSeq      = 2

	// maxBinFramePayload bounds one frame: ~1M unweighted values. Anything
	// larger is a framing error, mirroring the WAL's maxRecordBytes.
	maxBinFramePayload = 8 << 20
)

// ErrBadFrame rejects malformed binary ingest input: a wrong prologue, a
// torn or oversized frame, a CRC mismatch, an unknown frame type, or
// non-canonical (nonzero reserved/pad) bytes.
var ErrBadFrame = errors.New("serve: bad binary ingest frame")

// ErrUnknownMetricID rejects a batch frame whose id no dict frame on this
// stream has interned.
var ErrUnknownMetricID = errors.New("serve: unknown metric id in binary ingest")

// hostLittleEndian gates the zero-copy view: on little-endian hosts the
// wire's f64 bytes are the in-memory representation.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f64view reinterprets n little-endian float64s starting at b as a
// []float64 without copying, when the host layout allows it; otherwise it
// decodes into scratch. The returned slice may alias b — it is valid only
// while b is.
func f64view(b []byte, n int, scratch []float64) []float64 {
	if n == 0 {
		return scratch[:0]
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	for i := range scratch {
		scratch[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return scratch
}

// AppendBinPrologueV2 appends the 8-byte version-2 stream prologue; the
// stream may then carry session frames and sequenced batches.
func AppendBinPrologueV2(buf []byte) []byte {
	return append(buf, binMagic[0], binMagic[1], binMagic[2], binMagic[3], binVersion, 0, 0, 0)
}

// parseBinPrologue validates the 8-byte stream prologue.
func parseBinPrologue(b []byte) error {
	if len(b) < binPrologueLen {
		return fmt.Errorf("%w: short prologue (%d bytes)", ErrBadFrame, len(b))
	}
	if string(b[:4]) != binMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	if b[4] != binVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFrame, b[4])
	}
	if b[5] != 0 || b[6] != 0 || b[7] != 0 {
		return fmt.Errorf("%w: nonzero prologue padding", ErrBadFrame)
	}
	return nil
}

// appendBinFrame wraps payload in the frame header. The payload length must
// already be a multiple of 8.
func appendBinFrame(buf, payload []byte) []byte {
	var hdr [binFrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoliBin))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

var castagnoliBin = crc32.MakeTable(crc32.Castagnoli)

// pad8 returns the zero padding that rounds n up to a multiple of 8.
func pad8(n int) int { return (8 - n%8) % 8 }

var zeroPad [8]byte

// AppendDictFrame appends a dict frame interning name (and backend, may be
// empty) under id.
func AppendDictFrame(buf []byte, id uint32, name, backend string) []byte {
	payload := make([]byte, binDictHeaderLen, binDictHeaderLen+len(backend)+len(name)+8)
	payload[0] = binFrameDict
	payload[1] = byte(len(backend))
	binary.LittleEndian.PutUint16(payload[2:], uint16(len(name)))
	binary.LittleEndian.PutUint32(payload[4:], id)
	payload = append(payload, backend...)
	payload = append(payload, name...)
	payload = append(payload, zeroPad[:pad8(len(payload))]...)
	return appendBinFrame(buf, payload)
}

// AppendBatchFrame appends a batch frame carrying values (and, when
// non-nil, per-value weights) for the interned metric id.
func AppendBatchFrame(buf []byte, id uint32, values, weights []float64) []byte {
	return appendBatchFrame(buf, id, 0, false, values, weights)
}

// AppendBatchSeqFrame appends a sequenced batch frame: seq is the
// per-session, strictly monotonic (from 1) sequence number the server
// dedups retries on. The stream must have declared a session first.
func AppendBatchSeqFrame(buf []byte, id uint32, seq uint64, values, weights []float64) []byte {
	return appendBatchFrame(buf, id, seq, true, values, weights)
}

func appendBatchFrame(buf []byte, id uint32, seq uint64, sequenced bool, values, weights []float64) []byte {
	weighted := weights != nil
	n := len(values)
	size := binBatchHeaderLen + 8*n
	if sequenced {
		size += 8
	}
	if weighted {
		size += 8 * n
	}
	payload := make([]byte, size)
	payload[0] = binFrameBatch
	if weighted {
		payload[1] |= binFlagWeighted
	}
	if sequenced {
		payload[1] |= binFlagSeq
	}
	binary.LittleEndian.PutUint32(payload[4:], id)
	binary.LittleEndian.PutUint32(payload[8:], uint32(n))
	off := binBatchHeaderLen
	if sequenced {
		binary.LittleEndian.PutUint64(payload[off:], seq)
		off += 8
	}
	for _, v := range values {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	if weighted {
		for _, w := range weights {
			binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(w))
			off += 8
		}
	}
	return appendBinFrame(buf, payload)
}

// AppendSessionFrame appends a session frame declaring the writer's client
// session id (nonzero).
func AppendSessionFrame(buf []byte, sid uint64) []byte {
	payload := make([]byte, binSessionFrameLen)
	payload[0] = binFrameSession
	binary.LittleEndian.PutUint64(payload[8:], sid)
	return appendBinFrame(buf, payload)
}

// AppendSessionAckFrame appends the server's answer to a session frame:
// the session's current high-water mark — the highest sequenced batch it
// has applied, 0 for a fresh session.
func AppendSessionAckFrame(buf []byte, status byte, highWater uint64) []byte {
	payload := make([]byte, binSessionFrameLen)
	payload[0] = binFrameSessionAck
	payload[1] = status
	binary.LittleEndian.PutUint64(payload[8:], highWater)
	return appendBinFrame(buf, payload)
}

// AppendAckFrame appends an ack frame: status 0 acknowledges accepted
// values; nonzero status carries the error message in msg.
func AppendAckFrame(buf []byte, status byte, accepted uint32, msg string) []byte {
	if len(msg) > 1<<16-1 {
		msg = msg[:1<<16-1]
	}
	payload := make([]byte, binAckHeaderLen, binAckHeaderLen+len(msg)+8)
	payload[0] = binFrameAck
	payload[1] = status
	binary.LittleEndian.PutUint16(payload[2:], uint16(len(msg)))
	binary.LittleEndian.PutUint32(payload[4:], accepted)
	payload = append(payload, msg...)
	payload = append(payload, zeroPad[:pad8(len(payload))]...)
	return appendBinFrame(buf, payload)
}

// binParsed is one decoded frame; which fields are meaningful depends on
// typ. Values and Weights may alias the payload buffer (zero-copy view):
// they are valid only until the buffer is reused.
type binParsed struct {
	typ       byte
	id        uint32
	name      string
	backend   string
	weighted  bool
	sequenced bool
	seq       uint64 // sequenced batch: per-session sequence number
	sid       uint64 // session frame: client session id
	hw        uint64 // sessionAck frame: durable high-water mark
	values    []float64
	weights   []float64
	status    byte
	accepted  uint32
	msg       string
}

// checkZero rejects nonzero reserved or pad bytes — the canonical-format
// guarantee that makes decode→encode bit-exact.
func checkZero(b []byte, what string) error {
	for _, c := range b {
		if c != 0 {
			return fmt.Errorf("%w: nonzero %s byte", ErrBadFrame, what)
		}
	}
	return nil
}

// parseBinFrameHeader validates a frame header and returns the payload
// length.
func parseBinFrameHeader(hdr []byte) (int, uint32, error) {
	plen := int(binary.LittleEndian.Uint32(hdr[0:]))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if plen == 0 || plen%8 != 0 {
		return 0, 0, fmt.Errorf("%w: payload length %d is not a positive multiple of 8", ErrBadFrame, plen)
	}
	if plen > maxBinFramePayload {
		return 0, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, plen, maxBinFramePayload)
	}
	return plen, crc, nil
}

// parseBinPayload decodes one CRC-verified payload. valScratch/wtScratch
// back the copy fallback when a zero-copy view is not possible.
func parseBinPayload(p []byte, valScratch, wtScratch []float64) (binParsed, error) {
	var out binParsed
	if len(p) == 0 {
		return out, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	out.typ = p[0]
	switch out.typ {
	case binFrameDict:
		if len(p) < binDictHeaderLen {
			return out, fmt.Errorf("%w: short dict payload", ErrBadFrame)
		}
		backendLen := int(p[1])
		nameLen := int(binary.LittleEndian.Uint16(p[2:]))
		out.id = binary.LittleEndian.Uint32(p[4:])
		body := binDictHeaderLen + backendLen + nameLen
		if nameLen == 0 || body+pad8(body) != len(p) {
			return out, fmt.Errorf("%w: dict payload length %d does not match name/backend lengths", ErrBadFrame, len(p))
		}
		out.backend = string(p[binDictHeaderLen : binDictHeaderLen+backendLen])
		out.name = string(p[binDictHeaderLen+backendLen : body])
		if err := checkZero(p[body:], "dict pad"); err != nil {
			return out, err
		}
	case binFrameBatch:
		if len(p) < binBatchHeaderLen {
			return out, fmt.Errorf("%w: short batch payload", ErrBadFrame)
		}
		out.weighted = p[1]&binFlagWeighted != 0
		out.sequenced = p[1]&binFlagSeq != 0
		if p[1]&^byte(binFlagWeighted|binFlagSeq) != 0 {
			return out, fmt.Errorf("%w: unknown batch flags %#x", ErrBadFrame, p[1])
		}
		if err := checkZero(p[2:4], "batch reserved"); err != nil {
			return out, err
		}
		if err := checkZero(p[12:16], "batch reserved"); err != nil {
			return out, err
		}
		out.id = binary.LittleEndian.Uint32(p[4:])
		count := int(binary.LittleEndian.Uint32(p[8:]))
		off := binBatchHeaderLen
		if out.sequenced {
			if len(p) < off+8 {
				return out, fmt.Errorf("%w: short sequenced batch payload", ErrBadFrame)
			}
			out.seq = binary.LittleEndian.Uint64(p[off:])
			if out.seq == 0 {
				return out, fmt.Errorf("%w: sequenced batch with sequence number 0", ErrBadFrame)
			}
			off += 8
		}
		lanes := 1
		if out.weighted {
			lanes = 2
		}
		if off+8*count*lanes != len(p) {
			return out, fmt.Errorf("%w: batch payload length %d does not match count %d", ErrBadFrame, len(p), count)
		}
		out.values = f64view(p[off:], count, valScratch)
		if out.weighted {
			out.weights = f64view(p[off+8*count:], count, wtScratch)
		}
	case binFrameAck:
		if len(p) < binAckHeaderLen {
			return out, fmt.Errorf("%w: short ack payload", ErrBadFrame)
		}
		out.status = p[1]
		msgLen := int(binary.LittleEndian.Uint16(p[2:]))
		out.accepted = binary.LittleEndian.Uint32(p[4:])
		body := binAckHeaderLen + msgLen
		if body+pad8(body) != len(p) {
			return out, fmt.Errorf("%w: ack payload length %d does not match message length %d", ErrBadFrame, len(p), msgLen)
		}
		out.msg = string(p[binAckHeaderLen:body])
		if err := checkZero(p[body:], "ack pad"); err != nil {
			return out, err
		}
	case binFrameSession:
		if len(p) != binSessionFrameLen {
			return out, fmt.Errorf("%w: session payload length %d != %d", ErrBadFrame, len(p), binSessionFrameLen)
		}
		if err := checkZero(p[1:8], "session reserved"); err != nil {
			return out, err
		}
		out.sid = binary.LittleEndian.Uint64(p[8:])
		if out.sid == 0 {
			return out, fmt.Errorf("%w: session id 0 is reserved", ErrBadFrame)
		}
	case binFrameSessionAck:
		if len(p) != binSessionFrameLen {
			return out, fmt.Errorf("%w: sessionAck payload length %d != %d", ErrBadFrame, len(p), binSessionFrameLen)
		}
		out.status = p[1]
		if err := checkZero(p[2:8], "sessionAck reserved"); err != nil {
			return out, err
		}
		out.hw = binary.LittleEndian.Uint64(p[8:])
	default:
		return out, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, out.typ)
	}
	return out, nil
}

// maxBinDictEntries caps one stream's interning table; a writer needing
// more ids than this is leaking them.
const maxBinDictEntries = 1 << 16

// binGrammar holds the stream rules every reader of a writer's MRLB stream
// enforces — the node's TCP and HTTP carriers and the forwarding splitter
// alike: a dict frame interns a valid metric name under an id (at most
// maxBinDictEntries ids per stream), a batch frame names an interned id, a
// stream declares at most one session and sequences no batch before it,
// and a writer sends no ack or sessionAck frames.
type binGrammar struct {
	dict map[uint32]string
	sid  uint64 // the declared session, 0 until a session frame
}

// check applies one parsed frame to the stream state. For a batch frame it
// returns the metric name the frame's id is interned to.
func (g *binGrammar) check(fr *binParsed) (string, error) {
	switch fr.typ {
	case binFrameDict:
		if err := validateMetricName(fr.name); err != nil {
			return "", err
		}
		if g.dict == nil {
			g.dict = make(map[uint32]string)
		}
		if _, ok := g.dict[fr.id]; !ok && len(g.dict) >= maxBinDictEntries {
			return "", fmt.Errorf("%w: more than %d interned metric ids", ErrBadFrame, maxBinDictEntries)
		}
		g.dict[fr.id] = fr.name
		return "", nil
	case binFrameBatch:
		name, ok := g.dict[fr.id]
		if !ok {
			return "", fmt.Errorf("%w: id %d (send a dict frame first)", ErrUnknownMetricID, fr.id)
		}
		if fr.sequenced && g.sid == 0 {
			return "", fmt.Errorf("%w: sequenced batch before a session frame", ErrBadFrame)
		}
		return name, nil
	case binFrameSession:
		if g.sid != 0 && fr.sid != g.sid {
			return "", fmt.Errorf("%w: stream already bound to session %d", ErrBadFrame, g.sid)
		}
		g.sid = fr.sid
		return "", nil
	default: // binFrameAck/binFrameSessionAck: parse accepts them (clients read acks), writers must not send them
		return "", fmt.Errorf("%w: unexpected frame type %d from a writer", ErrBadFrame, fr.typ)
	}
}

// parseBinFrame splits and decodes the first frame of b, returning the
// parsed frame and the remainder. The frame's CRC is verified here.
func parseBinFrame(b []byte, valScratch, wtScratch []float64) (binParsed, []byte, error) {
	if len(b) < binFrameHeaderLen {
		return binParsed{}, nil, fmt.Errorf("%w: torn frame header (%d bytes)", ErrBadFrame, len(b))
	}
	plen, crc, err := parseBinFrameHeader(b[:binFrameHeaderLen])
	if err != nil {
		return binParsed{}, nil, err
	}
	if len(b) < binFrameHeaderLen+plen {
		return binParsed{}, nil, fmt.Errorf("%w: torn frame payload (%d of %d bytes)", ErrBadFrame, len(b)-binFrameHeaderLen, plen)
	}
	payload := b[binFrameHeaderLen : binFrameHeaderLen+plen]
	if crc32.Checksum(payload, castagnoliBin) != crc {
		return binParsed{}, nil, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	out, err := parseBinPayload(payload, valScratch, wtScratch)
	if err != nil {
		return binParsed{}, nil, err
	}
	return out, b[binFrameHeaderLen+plen:], nil
}
