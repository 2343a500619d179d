package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// reencode rebuilds the wire bytes of a parsed frame; the canonical-format
// guarantee is that this reproduces the input bit-exactly.
func reencode(fr binParsed) []byte {
	switch fr.typ {
	case binFrameDict:
		return AppendDictFrame(nil, fr.id, fr.name, fr.backend)
	case binFrameBatch:
		var ws []float64
		if fr.weighted {
			ws = fr.weights
			if ws == nil {
				ws = []float64{}
			}
		}
		if fr.sequenced {
			return AppendBatchSeqFrame(nil, fr.id, fr.seq, fr.values, ws)
		}
		return AppendBatchFrame(nil, fr.id, fr.values, ws)
	case binFrameAck:
		return AppendAckFrame(nil, fr.status, fr.accepted, fr.msg)
	case binFrameSession:
		return AppendSessionFrame(nil, fr.sid)
	case binFrameSessionAck:
		return AppendSessionAckFrame(nil, fr.status, fr.hw)
	}
	return nil
}

func TestBinProtoRoundTrip(t *testing.T) {
	frames := [][]byte{
		AppendDictFrame(nil, 1, "latency_ms", ""),
		AppendDictFrame(nil, 2, "counts", "weighted"),
		AppendBatchFrame(nil, 1, []float64{1.5, -2.25, math.Inf(1), 0}, nil),
		AppendBatchFrame(nil, 2, []float64{9.5, 11}, []float64{12, 3}),
		AppendBatchFrame(nil, 1, nil, nil),
		AppendAckFrame(nil, 0, 4, ""),
		AppendAckFrame(nil, ackBadRequest, 0, "serve: NaN has no rank"),
		AppendSessionFrame(nil, 0xDEADBEEFCAFE),
		AppendSessionAckFrame(nil, ackOK, 42),
		AppendSessionAckFrame(nil, ackUnavailable, 0),
		AppendBatchSeqFrame(nil, 1, 7, []float64{3.5, -1}, nil),
		AppendBatchSeqFrame(nil, 2, 1, []float64{9.5}, []float64{2}),
		AppendBatchSeqFrame(nil, 1, math.MaxUint64, nil, nil),
	}
	for i, frame := range frames {
		fr, rest, err := parseBinFrame(frame, nil, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("frame %d: %d trailing bytes", i, len(rest))
		}
		if got := reencode(fr); !bytes.Equal(got, frame) {
			t.Fatalf("frame %d: re-encode differs\n got %x\nwant %x", i, got, frame)
		}
	}
	// The whole stream concatenates and splits back apart.
	stream := AppendBinPrologueV2(nil)
	for _, f := range frames {
		stream = append(stream, f...)
	}
	if err := parseBinPrologue(stream); err != nil {
		t.Fatal(err)
	}
	rest := stream[binPrologueLen:]
	for i := 0; len(rest) > 0; i++ {
		var err error
		_, rest, err = parseBinFrame(rest, nil, nil)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
	}
	// The same writer body under a version-1 prologue is a bad frame, for
	// the stream check and the forwarding splitter alike.
	body := binStreamBody(1, "m", "", [][2][]float64{{[]float64{1, 2}, nil}})
	oneOwner := func(string) int { return 0 }
	if _, err := SplitBinBody(body, 1, oneOwner); err != nil {
		t.Fatal(err)
	}
	body[4] = 1
	if err := parseBinPrologue(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v1 prologue: %v, want ErrBadFrame", err)
	}
	if _, err := SplitBinBody(body, 1, oneOwner); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("SplitBinBody on a v1 body: %v, want ErrBadFrame", err)
	}
}

func TestBinProtoRejectsCorruption(t *testing.T) {
	frame := AppendBatchFrame(nil, 7, []float64{1, 2, 3}, nil)
	for pos := 0; pos < len(frame); pos++ {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x40
		fr, _, err := parseBinFrame(bad, nil, nil)
		if err == nil {
			// The only byte a flip may survive at is inside the length field
			// making the frame torn... which also errors. Any clean parse of
			// corrupted bytes must at least fail the canonical re-encode.
			if bytes.Equal(reencode(fr), bad) {
				t.Fatalf("flip at %d produced a different valid frame identical to input", pos)
			}
			t.Fatalf("flip at byte %d accepted", pos)
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flip at byte %d: error %v not ErrBadFrame", pos, err)
		}
	}
	// Nonzero reserved bytes must be rejected even with a fixed-up CRC.
	bad := AppendBatchFrame(nil, 7, []float64{1}, nil)
	bad[binFrameHeaderLen+2] = 1 // reserved u16
	fixCRC(bad)
	if _, _, err := parseBinFrame(bad, nil, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("nonzero reserved bytes accepted: %v", err)
	}
	bad = AppendDictFrame(nil, 1, "m", "")
	bad[len(bad)-1] = 0xee // pad byte
	fixCRC(bad)
	if _, _, err := parseBinFrame(bad, nil, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("nonzero dict pad accepted: %v", err)
	}
}

// fixCRC recomputes a frame's CRC over its (mutated) payload so the test
// reaches the canonical-format checks behind the checksum.
func fixCRC(frame []byte) {
	payload := frame[binFrameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoliBin))
}

// TestReadBinAck exercises the exported client-side ack reader: it must
// decode ok and error acks from a stream, reject non-ack frames, and pass
// transport errors through.
func TestReadBinAck(t *testing.T) {
	stream := AppendAckFrame(nil, ackOK, 512, "")
	stream = AppendAckFrame(stream, ackDegraded, 0, "degraded: replaying")
	r := bytes.NewReader(stream)
	ack, err := ReadBinAck(r)
	if err != nil {
		t.Fatalf("ok ack: %v", err)
	}
	if !ack.OK() || ack.Accepted != 512 || ack.Msg != "" {
		t.Fatalf("ok ack decoded as %+v", ack)
	}
	ack, err = ReadBinAck(r)
	if err != nil {
		t.Fatalf("error ack: %v", err)
	}
	if ack.OK() || ack.Status != ackDegraded || ack.Msg != "degraded: replaying" {
		t.Fatalf("error ack decoded as %+v", ack)
	}
	if _, err := ReadBinAck(r); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
	if _, err := ReadBinAck(bytes.NewReader(AppendDictFrame(nil, 1, "m", ""))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("dict frame as ack: err = %v, want ErrBadFrame", err)
	}
	corrupt := AppendAckFrame(nil, ackOK, 1, "")
	corrupt[len(corrupt)-1] ^= 0x10
	if _, err := ReadBinAck(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt ack: err = %v, want ErrBadFrame", err)
	}
}
