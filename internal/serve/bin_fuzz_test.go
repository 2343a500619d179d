package serve

import (
	"bytes"
	"testing"
)

// FuzzBinaryIngestFrame holds the binary ingest decoder to its three
// contracts: it never panics on arbitrary bytes, it rejects corrupted
// frames (the harness flips one byte of a valid frame and requires an
// error), and every frame it accepts re-encodes to the exact input bytes —
// the canonical-format property that makes the JSON-vs-binary differential
// test meaningful.
func FuzzBinaryIngestFrame(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add(AppendBinPrologueV2(nil), uint16(3), byte(1))
	f.Add(AppendDictFrame(nil, 1, "latency_ms", "kll"), uint16(9), byte(0x80))
	f.Add(AppendBatchFrame(nil, 1, []float64{1.5, 2.5, -9}, nil), uint16(17), byte(0x40))
	f.Add(AppendBatchFrame(nil, 2, []float64{9.5, 11}, []float64{12, 3}), uint16(23), byte(2))
	f.Add(AppendAckFrame(nil, ackUnavailable, 0, "wal: sync: injected"), uint16(5), byte(4))
	f.Add(AppendBatchSeqFrame(nil, 1, 7, []float64{1.5, 2.5}, nil), uint16(19), byte(0x20))
	f.Add(AppendSessionFrame(nil, 0xfeedface), uint16(11), byte(8))
	f.Add(AppendSessionAckFrame(nil, ackOK, 42), uint16(13), byte(0x10))
	f.Add([]byte("MRLB\x02\x00\x00\x00garbage after a fine v2 prologue"), uint16(12), byte(0xff))
	f.Add([]byte("MRLB\x01\x00\x00\x00garbage after a fine prologue"), uint16(12), byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		// --- Shape 1: raw fuzz bytes as a frame stream. Parse must never
		// panic, and whatever parses must re-encode bit-exactly.
		rest := data
		for len(rest) > 0 {
			before := rest
			fr, after, err := parseBinFrame(rest, nil, nil)
			if err != nil {
				break
			}
			consumed := before[:len(before)-len(after)]
			if got := reencode(fr); !bytes.Equal(got, consumed) {
				t.Fatalf("accepted frame re-encodes differently\n got %x\nwant %x", got, consumed)
			}
			rest = after
		}
		_ = parseBinPrologue(data)

		// --- Shape 2: frames built *from* the fuzz data, then corrupted by
		// one byte flip. The decoder must accept the clean frame and reject
		// the corrupt one.
		var values, weights []float64
		for i, b := range data {
			if len(values) >= 64 {
				break
			}
			values = append(values, float64(int(b)-128)*1.25)
			weights = append(weights, float64(i%7+1))
		}
		name := "m"
		if len(data) > 0 {
			name = string(rune('a' + data[0]%26))
		}
		clean := [][]byte{
			AppendDictFrame(nil, uint32(pos), name, ""),
			AppendBatchFrame(nil, uint32(pos), values, nil),
			AppendBatchFrame(nil, uint32(pos), values, weights),
			AppendBatchSeqFrame(nil, uint32(pos), uint64(pos)+1, values, nil),
			AppendBatchSeqFrame(nil, uint32(pos), uint64(pos)+1, values, weights),
			AppendAckFrame(nil, flip, uint32(len(values)), name),
			AppendSessionFrame(nil, uint64(pos)+1),
			AppendSessionAckFrame(nil, flip, uint64(pos)),
		}
		for i, frame := range clean {
			fr, restf, err := parseBinFrame(frame, nil, nil)
			if err != nil {
				t.Fatalf("clean frame %d rejected: %v", i, err)
			}
			if len(restf) != 0 {
				t.Fatalf("clean frame %d left %d bytes", i, len(restf))
			}
			if got := reencode(fr); !bytes.Equal(got, frame) {
				t.Fatalf("clean frame %d round-trip mismatch", i)
			}
			if flip == 0 {
				continue
			}
			bad := append([]byte(nil), frame...)
			bad[int(pos)%len(bad)] ^= flip
			if badFr, _, err := parseBinFrame(bad, nil, nil); err == nil {
				// A flip in the value lanes is caught by the CRC; a flip in
				// the header is caught by the length/canonical checks. Either
				// way an accepted mutant is a decoder hole.
				t.Fatalf("frame %d with byte %d flipped by %#x accepted: %+v",
					i, int(pos)%len(bad), flip, badFr)
			}
		}
	})
}
