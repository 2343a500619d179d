package wal

import (
	"math"
	"testing"

	"mrl/internal/faultfs"
)

// FuzzWALReplay drives recovery with two inputs at once: a well-formed log
// built from the fuzz data that then gets one byte corrupted at a derived
// position, and the raw fuzz bytes dropped in as a segment file. In both
// shapes Replay must recover or stop cleanly — never panic, never invent
// records (everything replayed matches something written, in order), and
// never report more than was appended.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint32(0), byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(9), byte(0xff))
	f.Add([]byte("MRLW\x01garbage that is not a frame"), uint32(20), byte(1))
	f.Add([]byte{250, 250, 250, 250}, uint32(40), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, corruptPos uint32, flip byte) {
		// --- Shape 1: valid log, one flipped byte. ---
		mem := faultfs.NewMem()
		l, err := Open("/wal", Options{FS: mem, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		var wrote []written
		for i, b := range data {
			if len(wrote) >= 32 {
				break
			}
			values := make([]float64, int(b)%5)
			for j := range values {
				values[j] = float64(i*7 + j)
			}
			metric := string(rune('a' + b%3))
			seq, err := l.AppendPipelined(metric, values)
			if err != nil {
				t.Fatalf("append on clean fs: %v", err)
			}
			wrote = append(wrote, written{seq, metric, values})
		}
		l.Close()

		segs, err := listSegments(mem, "/wal")
		if err != nil {
			t.Fatal(err)
		}
		if flip != 0 && len(segs) > 0 {
			seg := segs[int(corruptPos)%len(segs)]
			blob, err := mem.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) > 0 {
				blob[int(corruptPos)%len(blob)] ^= flip
				mem.WriteFile(seg.path, blob)
			}
		}
		checkReplay(t, mem, wrote)

		// --- Shape 2: raw fuzz bytes as the one and only segment. ---
		raw := faultfs.NewMem()
		raw.MkdirAll("/wal", 0o755)
		raw.WriteFile("/wal/wal-00000000.seg", data)
		checkReplay(t, raw, nil)
	})
}

// written is one record the fuzz harness appended successfully.
type written struct {
	seq    uint64
	metric string
	values []float64
}

// checkReplay replays everything under /wal and asserts the output is a
// subsequence of wrote (when known), with strictly increasing seqs, sane
// values, and consistent stats.
func checkReplay(t *testing.T, fsys faultfs.FS, wrote []written) {
	t.Helper()
	bySeq := make(map[uint64]int, len(wrote))
	for i, w := range wrote {
		bySeq[w.seq] = i
	}
	var last uint64
	var replayed int
	st, err := Replay(fsys, "/wal", 0, func(r Record) error {
		replayed++
		if r.Seq <= last {
			t.Fatalf("seq not strictly increasing: %d after %d", r.Seq, last)
		}
		last = r.Seq
		for _, v := range r.Values {
			if math.IsNaN(v) {
				t.Fatalf("replay delivered NaN at seq %d", r.Seq)
			}
		}
		if wrote != nil {
			i, ok := bySeq[r.Seq]
			if !ok {
				t.Fatalf("replay invented seq %d", r.Seq)
			}
			w := wrote[i]
			if r.Metric != w.metric || len(r.Values) != len(w.values) {
				t.Fatalf("seq %d: got (%q,%d values), wrote (%q,%d values)",
					r.Seq, r.Metric, len(r.Values), w.metric, len(w.values))
			}
			for j := range w.values {
				if r.Values[j] != w.values[j] {
					t.Fatalf("seq %d value %d: got %v, wrote %v", r.Seq, j, r.Values[j], w.values[j])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay on in-memory fs: %v", err)
	}
	if st.Replayed != replayed {
		t.Fatalf("stats say %d replayed, callback saw %d", st.Replayed, replayed)
	}
	if wrote != nil && st.Replayed > len(wrote) {
		t.Fatalf("replayed %d > written %d", st.Replayed, len(wrote))
	}
	if st.LastSeq < last {
		t.Fatalf("LastSeq %d < last delivered %d", st.LastSeq, last)
	}
}
