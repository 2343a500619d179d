package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mrl/internal/faultfs"
)

func batch(base, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(base + i)
	}
	return vs
}

// collect replays everything after `after` into a slice.
func collect(t *testing.T, fsys faultfs.FS, dir string, after uint64) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	st, err := Replay(fsys, dir, after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for name, fsys := range map[string]faultfs.FS{
		"mem": faultfs.NewMem(),
		"os":  faultfs.OS{},
	} {
		t.Run(name, func(t *testing.T) {
			dir := "/wal"
			if name == "os" {
				dir = t.TempDir() + "/wal"
			}
			l, err := Open(dir, Options{FS: fsys, Sync: SyncEveryBatch})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				seq, err := l.AppendPipelined("m", batch(i*100, 7))
				if err != nil {
					t.Fatal(err)
				}
				if seq != uint64(i+1) {
					t.Fatalf("seq %d on append %d", seq, i)
				}
			}
			if _, err := l.AppendPipelined("other", nil); err != nil {
				t.Fatal(err) // empty batches are legal frames
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendPipelined("m", batch(0, 1)); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}

			recs, st := collect(t, fsys, dir, 0)
			if len(recs) != 11 || st.Replayed != 11 || st.LastSeq != 11 || st.Truncated != 0 {
				t.Fatalf("replay: %d records, stats %+v", len(recs), st)
			}
			for i := 0; i < 10; i++ {
				r := recs[i]
				if r.Seq != uint64(i+1) || r.Metric != "m" || len(r.Values) != 7 || r.Values[0] != float64(i*100) {
					t.Fatalf("record %d = %+v", i, r)
				}
			}
			if recs[10].Metric != "other" || len(recs[10].Values) != 0 {
				t.Fatalf("empty-batch record = %+v", recs[10])
			}

			// Checkpoint-style suffix replay.
			suffix, st := collect(t, fsys, dir, 8)
			if len(suffix) != 3 || st.Skipped != 8 || suffix[0].Seq != 9 {
				t.Fatalf("suffix after 8: %+v stats %+v", suffix, st)
			}
		})
	}
}

func TestRotationAndOpenResumesSequence(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: mem, Sync: SyncEveryBatch, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.AppendPipelined("m", batch(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("no rotation happened at 256-byte segments: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, mem, "/wal", 0)
	if len(recs) != 20 {
		t.Fatalf("replayed %d across segments, want 20", len(recs))
	}

	// A second life must resume numbering after the last valid record.
	l2, err := Open("/wal", Options{FS: mem, Sync: SyncEveryBatch, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l2.AppendPipelined("m", batch(99, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 21 {
		t.Fatalf("resumed seq = %d, want 21", seq)
	}
	l2.Close()
	recs, _ = collect(t, mem, "/wal", 0)
	if len(recs) != 21 || recs[20].Seq != 21 {
		t.Fatalf("after second life: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestTornTailTruncated(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: mem, Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendPipelined("m", batch(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	blob, err := mem.ReadFile("/wal/wal-00000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file at every byte boundary: the replayed records must
	// always be a clean prefix, never a panic, never a partial record.
	for cut := 0; cut <= len(blob); cut++ {
		mem.WriteFile("/wal/wal-00000001.seg", blob[:cut])
		recs, st := collect(t, mem, "/wal", 0)
		if len(recs) > 5 {
			t.Fatalf("cut %d: %d records from a 5-record log", cut, len(recs))
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) || len(r.Values) != 3 || r.Values[0] != float64(i) {
				t.Fatalf("cut %d: record %d = %+v not a prefix", cut, i, r)
			}
		}
		if cut < len(blob) && len(recs) == 5 && !mustBeClean(cut, len(blob)) {
			// Chopping inside the last frame must drop it.
			_ = st
		}
	}

	// Flip one payload byte mid-log: CRC must cut replay there.
	mem.WriteFile("/wal/wal-00000001.seg", blob)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	mem.WriteFile("/wal/wal-00000001.seg", corrupt)
	recs, st := collect(t, mem, "/wal", 0)
	if len(recs) >= 5 {
		t.Fatalf("corruption at midpoint left %d/5 records", len(recs))
	}
	if st.Truncated == 0 {
		t.Fatalf("corruption not reported: %+v", st)
	}
}

func mustBeClean(cut, full int) bool { return cut == full }

// A failed append taints the segment: the frame is never acked, the next
// append lands in a fresh segment, and replay sees a contiguous acked
// history.
func TestFailedAppendNeverShadowsAckedData(t *testing.T) {
	for _, kind := range []string{"enospc", "short-write", "sync-failure"} {
		t.Run(kind, func(t *testing.T) {
			mem := faultfs.NewMem()
			l, err := Open("/wal", Options{FS: mem, Sync: SyncEveryBatch})
			if err != nil {
				t.Fatal(err)
			}
			var acked []uint64
			for i := 0; i < 3; i++ {
				seq, err := l.AppendPipelined("m", batch(i, 4))
				if err != nil {
					t.Fatal(err)
				}
				acked = append(acked, seq)
			}
			switch kind {
			case "enospc":
				mem.FailWrites(0, 1, nil, false)
			case "short-write":
				mem.FailWrites(0, 1, nil, true)
			case "sync-failure":
				mem.FailSyncs(0, 1, nil)
			}
			if _, err := l.AppendPipelined("m", batch(100, 4)); err == nil {
				t.Fatal("injected fault did not surface")
			}
			failedSeq := uint64(len(acked) + 1) // consumed, never acked
			// Writability recovers on the next append, in a fresh segment.
			for i := 0; i < 3; i++ {
				seq, err := l.AppendPipelined("m", batch(200+i, 4))
				if err != nil {
					t.Fatalf("append after fault: %v", err)
				}
				acked = append(acked, seq)
			}
			l.Close()

			// The invariant is at-least-once on the failed ack: every acked
			// record must replay; the only extra ever allowed is the failed
			// frame itself (its bytes may have reached the disk anyway).
			verify := func(label string) {
				t.Helper()
				recs, _ := collect(t, mem, "/wal", 0)
				got := map[uint64]bool{}
				for _, r := range recs {
					if got[r.Seq] {
						t.Fatalf("%s: seq %d replayed twice", label, r.Seq)
					}
					got[r.Seq] = true
					if r.Seq != failedSeq && len(r.Values) != 4 {
						t.Fatalf("%s: record %+v malformed", label, r)
					}
				}
				for _, seq := range acked {
					if !got[seq] {
						t.Fatalf("%s: acked seq %d lost (replayed %v)", label, seq, got)
					}
					delete(got, seq)
				}
				for seq := range got {
					if seq != failedSeq {
						t.Fatalf("%s: unexplained extra seq %d", label, seq)
					}
				}
			}
			verify("pre-crash")
			mem.CrashPartial(rand.New(rand.NewSource(1)))
			verify("post-crash")
		})
	}
}

func TestPrune(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: mem, Sync: SyncEveryBatch, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 30; i++ {
		seq, err := l.AppendPipelined("m", batch(i, 4))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	before := l.Stats().Segments
	if before < 4 {
		t.Fatalf("want several segments, got %d", before)
	}
	covered := last - 5
	removed, err := l.Prune(covered)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing pruned")
	}
	recs, _ := collect(t, mem, "/wal", covered)
	if len(recs) != 5 {
		t.Fatalf("post-prune suffix replay: %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != covered+uint64(i)+1 {
			t.Fatalf("suffix record %d seq %d", i, r.Seq)
		}
	}
	// Pruning everything keeps only the live segment.
	l.AppendPipelined("m", batch(0, 1))
	if _, err := l.Prune(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after full prune: %+v", st)
	}
	l.Close()
}

func TestSyncIntervalPolicy(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: mem, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.AppendPipelined("m", batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing synced yet: a crash loses the acked-but-unsynced batches —
	// the documented interval contract.
	mem.Crash()
	recs, _ := collect(t, mem, "/wal", 0)
	if len(recs) != 0 {
		t.Fatalf("unsynced batches survived a crash: %d", len(recs))
	}

	mem2 := faultfs.NewMem()
	l2, err := Open("/wal", Options{FS: mem2, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l2.AppendPipelined("m", batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Sync(); err != nil { // the periodic flush
		t.Fatal(err)
	}
	mem2.Crash()
	recs, _ = collect(t, mem2, "/wal", 0)
	if len(recs) != 4 {
		t.Fatalf("interval-synced batches lost: %d/4", len(recs))
	}
	_ = l
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"every-batch": SyncEveryBatch,
		"interval":    SyncInterval,
		"off":         SyncOff,
	} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("always"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestAppendValidation(t *testing.T) {
	l, err := Open("/wal", Options{FS: faultfs.NewMem(), Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendPipelined("", batch(0, 1)); err == nil {
		t.Error("empty metric name accepted")
	}
	if _, err := l.AppendPipelined(fmt.Sprintf("%065536d", 0), nil); err == nil {
		t.Error("oversized metric name accepted")
	}
}

// TestOpenSeqFloorSurvivesPrune pins the sequence-allocation floor: a
// checkpoint that covers (and prunes) every segment leaves the directory
// empty while its "covered through seq N" claim lives on in the checkpoint
// file. A reopened log that restarted numbering at 1 would hand fresh
// records sequence numbers an old checkpoint already claims, and the next
// recovery would skip them as covered — silent loss of acked data.
// Options.LastKnownSeq is how the caller carries the claim across lives.
func TestOpenSeqFloorSurvivesPrune(t *testing.T) {
	fsys := faultfs.NewMem()

	// Life 1: ten acked records, seqs 1..10.
	l1, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l1.AppendPipelined("m", batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: a checkpoint covers seq 10 and prunes everything sealed.
	l2, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch, LastKnownSeq: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastSeq(); got != 10 {
		t.Fatalf("life 2 LastSeq %d, want 10", got)
	}
	if n, err := l2.Prune(10); err != nil || n == 0 {
		t.Fatalf("prune removed %d segments, err %v", n, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 3: no surviving segment records seq 10, only the caller does.
	l3, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch, LastKnownSeq: 10})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l3.AppendPipelined("m", batch(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("post-prune append got seq %d, want 11 (reusing a covered seq loses the record at recovery)", seq)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the checkpoint's position must replay the new record.
	recs, _ := collect(t, fsys, "/wal", 10)
	if len(recs) != 1 || recs[0].Seq != 11 || recs[0].Values[0] != 100 {
		t.Fatalf("replay after covered=10: %+v, want the one post-prune record at seq 11", recs)
	}
}
