package serve

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// binFrameCorpus seeds the binary ingest fuzz targets: single frames of
// every type, a bare prologue, and garbage after a prologue, each with the
// byte position and flip mask FuzzBinaryIngestFrame corrupts it by.
var binFrameCorpus = []struct {
	data []byte
	pos  uint16
	flip byte
}{
	{[]byte{}, 0, 0},
	{AppendBinPrologueV2(nil), 3, 1},
	{AppendDictFrame(nil, 1, "latency_ms", "kll"), 9, 0x80},
	{AppendBatchFrame(nil, 1, []float64{1.5, 2.5, -9}, nil), 17, 0x40},
	{AppendBatchFrame(nil, 2, []float64{9.5, 11}, []float64{12, 3}), 23, 2},
	{AppendAckFrame(nil, ackUnavailable, 0, "wal: sync: injected"), 5, 4},
	{AppendBatchSeqFrame(nil, 1, 7, []float64{1.5, 2.5}, nil), 19, 0x20},
	{AppendSessionFrame(nil, 0xfeedface), 11, 8},
	{AppendSessionAckFrame(nil, ackOK, 42), 13, 0x10},
	{[]byte("MRLB\x02\x00\x00\x00garbage after a fine v2 prologue"), 12, 0xff},
	{[]byte("MRLB\x01\x00\x00\x00garbage after a fine prologue"), 12, 0xff},
}

// FuzzBinaryIngestFrame holds the binary ingest decoder to its three
// contracts: it never panics on arbitrary bytes, it rejects corrupted
// frames (the harness flips one byte of a valid frame and requires an
// error), and every frame it accepts re-encodes to the exact input bytes —
// the canonical-format property that makes the JSON-vs-binary differential
// test meaningful.
func FuzzBinaryIngestFrame(f *testing.F) {
	for _, c := range binFrameCorpus {
		f.Add(c.data, c.pos, c.flip)
	}
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

// FuzzSplitBinBody holds the forwarding splitter to the node's stream
// rules. A body it accepts splits into parts that each pass the node's
// grammar and start with the prologue and the body's session frame, and
// whose batches are exactly the body's (metric, seq, values, weights)
// tuples, in body order per owner. A body it refuses yields no parts. Each
// input is tried raw and as a frame script (binScriptBody), whose frames
// all pass their CRC, so the fuzzer reaches re-interned ids, sessions after
// batches and the stream-rule refusals.
func FuzzSplitBinBody(f *testing.F) {
	for _, c := range binFrameCorpus {
		f.Add(c.data)
		f.Add(append(AppendBinPrologueV2(nil), c.data...))
	}
	var whole []byte
	for _, c := range binFrameCorpus[2:9] {
		whole = append(whole, c.data...)
	}
	f.Add(append(AppendBinPrologueV2(nil), whole...))
	f.Add([]byte{0, 1, 1, 2, 4, 9, 3, 1, 8, 3, 9, 4, 2, 7, 0, 6, 1, 5, 25, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSplit(t, data)
		checkSplit(t, binScriptBody(data))
	})
}

// binScriptBody reads fuzz bytes as a frame script, two bytes per frame:
// the first picks the frame type and its id, the second the metric, the
// values, the sequence step or the session.
func binScriptBody(data []byte) []byte {
	names := []string{"a", "b", "c", "d", "e"}
	body := AppendBinPrologueV2(nil)
	var seq uint64
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		id := uint32(op>>3) % 4
		switch op % 5 {
		case 0:
			body = AppendDictFrame(body, id, names[arg%5], "")
		case 1:
			body = AppendBatchFrame(body, id, []float64{float64(arg), float64(i)}, nil)
		case 2:
			body = AppendBatchFrame(body, id, []float64{float64(arg)}, []float64{float64(arg%3 + 1)})
		case 3:
			seq += uint64(arg%3) + 1
			body = AppendBatchSeqFrame(body, id, seq, []float64{float64(arg)}, nil)
		case 4:
			body = AppendSessionFrame(body, uint64(arg%2)+1)
		}
	}
	return body
}

// splitBatch is one batch frame as a node reads it; values and weights are
// kept as bits so NaN payloads compare equal.
type splitBatch struct {
	metric   string
	seq      uint64
	weighted bool
	values   []uint64
	weights  []uint64
}

// grammarBatches reads an MRLB body as a node's carriers do — the prologue,
// then every frame through binGrammar — and returns the body's first
// session frame and its batches in order.
func grammarBatches(body []byte) ([]byte, []splitBatch, error) {
	if err := parseBinPrologue(body); err != nil {
		return nil, nil, err
	}
	bits := func(fs []float64) []uint64 {
		var out []uint64
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
		return out
	}
	var g binGrammar
	var session []byte
	var out []splitBatch
	for rest := body[binPrologueLen:]; len(rest) > 0; {
		fr, tail, err := parseBinFrame(rest, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		frame := rest[:len(rest)-len(tail)]
		rest = tail
		name, err := g.check(&fr)
		if err != nil {
			return nil, nil, err
		}
		switch fr.typ {
		case binFrameSession:
			if session == nil {
				session = frame
			}
		case binFrameBatch:
			out = append(out, splitBatch{name, fr.seq, fr.weighted, bits(fr.values), bits(fr.weights)})
		}
	}
	return session, out, nil
}

func checkSplit(t *testing.T, body []byte) {
	const owners = 3
	owner := func(metric string) int { return int(uint64(metricSeed(metric)) % owners) }
	parts, err := SplitBinBody(body, owners, owner)
	session, batches, wantErr := grammarBatches(body)
	if wantErr == nil && len(batches) == 0 {
		wantErr = errNoBatchFrames
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("splitter error %v, node grammar error %v", err, wantErr)
	}
	if err != nil {
		if parts != nil {
			t.Fatalf("refused body (%v) yielded parts", err)
		}
		return
	}
	var want, got [owners][]splitBatch
	for _, b := range batches {
		want[owner(b.metric)] = append(want[owner(b.metric)], b)
	}
	head := append(append([]byte(nil), body[:binPrologueLen]...), session...)
	for i, part := range parts {
		if part == nil {
			continue
		}
		if !bytes.HasPrefix(part, head) {
			t.Fatalf("part %d does not start with the prologue and the session frame", i)
		}
		if _, got[i], err = grammarBatches(part); err != nil {
			t.Fatalf("part %d fails the node's grammar: %v", i, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parts carry batches\n%+v\nwant, per owner in body order,\n%+v", got, want)
	}
}
