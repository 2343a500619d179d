package wal

import (
	"errors"
	"sync"
	"testing"

	"mrl/internal/faultfs"
)

func TestPipelinedAppendReplayRoundTrip(t *testing.T) {
	fsys := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		seq, err := l.AppendPipelined("m", batch(i*100, 7))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d on append %d", seq, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, fsys, "/wal", 0)
	if len(recs) != 25 {
		t.Fatalf("replayed %d records, want 25", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Metric != "m" || len(r.Values) != 7 || r.Values[0] != float64(i*100) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

func TestPipelinedConcurrentProducersAllDurable(t *testing.T) {
	fsys := faultfs.NewMem()
	// A tiny segment threshold forces rotations mid-stream, exercising the
	// sync-before-rotate discipline under contention.
	l, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				seq, err := l.AppendPipelined("m", []float64{float64(p*1000 + i)})
				if err != nil {
					t.Errorf("producer %d append %d: %v", p, i, err)
					return
				}
				seqs[p] = append(seqs[p], seq)
			}
		}(p)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every acked sequence number must come back at replay, exactly once.
	recs, _ := collect(t, fsys, "/wal", 0)
	got := make(map[uint64]float64, len(recs))
	for _, r := range recs {
		got[r.Seq] = r.Values[0]
	}
	total := 0
	for p := range seqs {
		if len(seqs[p]) != perProducer {
			t.Fatalf("producer %d acked %d, want %d", p, len(seqs[p]), perProducer)
		}
		// Per-producer seqs must be strictly increasing: each call blocks
		// for its ack, so program order is commit order.
		for i, s := range seqs[p] {
			if i > 0 && s <= seqs[p][i-1] {
				t.Fatalf("producer %d seqs not increasing: %v", p, seqs[p])
			}
			v, ok := got[s]
			if !ok {
				t.Fatalf("acked seq %d missing at replay", s)
			}
			if v != float64(p*1000+i) {
				t.Fatalf("seq %d replayed value %v, want %d", s, v, p*1000+i)
			}
			total++
		}
	}
	if total != producers*perProducer {
		t.Fatalf("acked %d, want %d", total, producers*perProducer)
	}
}

func TestPipelinedFailedSyncFailsWholeRun(t *testing.T) {
	fsys := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPipelined("m", batch(0, 3)); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncs(0, 1, errors.New("injected sync failure"))
	if _, err := l.AppendPipelined("m", batch(100, 3)); err == nil {
		t.Fatal("append acked despite failed fsync")
	}
	fsys.ClearFaults()
	// The log must recover onto a fresh segment and keep accepting.
	seq, err := l.AppendPipelined("m", batch(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("post-recovery seq %d, want 3 (failed frame consumes its seq)", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, fsys, "/wal", 0)
	// Seq 2's bytes may or may not surface (failed ack, kernel may have
	// flushed); seqs 1 and 3 must.
	seen := map[uint64]bool{}
	for _, r := range recs {
		seen[r.Seq] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("acked seqs missing at replay: %v", seen)
	}
}

func TestPipelinedFailedWriteDoesNotFailEarlierRun(t *testing.T) {
	fsys := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Fail one write with ENOSPC after a couple succeed; concurrent
	// producers mean some group likely holds several frames when it hits.
	fsys.FailWrites(4, 1, errors.New("injected enospc"), false)
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := map[uint64]bool{}
	failures := 0
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				seq, err := l.AppendPipelined("m", []float64{float64(p*100 + i)})
				mu.Lock()
				if err != nil {
					failures++
				} else {
					acked[seq] = true
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if failures == 0 {
		t.Fatal("injected write failure never surfaced")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, fsys, "/wal", 0)
	seen := map[uint64]bool{}
	for _, r := range recs {
		seen[r.Seq] = true
	}
	for seq := range acked {
		if !seen[seq] {
			t.Fatalf("acked seq %d lost", seq)
		}
	}
}

func TestPipelinedAppendAfterClose(t *testing.T) {
	fsys := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPipelined("m", batch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPipelined("m", batch(0, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	// Close before any pipelined append must also yield ErrClosed.
	l2, err := Open("/wal2", Options{FS: fsys, Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.AppendPipelined("m", batch(0, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on never-piped closed log: %v, want ErrClosed", err)
	}
}

// TestPipelinedSessionRecordsStraddleSegments drives sessioned dedup
// records (sid, cseq) through the group-commit pipeline with a segment cap
// small enough that the stream rotates every few frames, so records land on
// both sides of segment boundaries — including as the first frame of a
// fresh segment. Replay must reproduce every (sid, cseq) pair intact and in
// order; a mangled pair would silently break binary ingest's exactly-once
// dedup after recovery.
func TestPipelinedSessionRecordsStraddleSegments(t *testing.T) {
	fsys := faultfs.NewMem()
	l, err := Open("/wal", Options{FS: fsys, Sync: SyncEveryBatch, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const sid, n = 0xABCD, 40
	for cseq := uint64(1); cseq <= n; cseq++ {
		// Varying batch sizes move the rotation point around relative to the
		// record layout, so the sid/cseq fields themselves cross boundaries.
		if _, err := l.AppendPipelinedSeq("m", batch(int(cseq)*10, 3+int(cseq)%11), sid, cseq); err != nil {
			t.Fatalf("append cseq %d: %v", cseq, err)
		}
	}
	// Interleave a plain record to pin that sid 0 still round-trips as "no
	// session" next to sessioned neighbours.
	if _, err := l.AppendPipelined("m", batch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(fsys, "/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments: the cap never forced a rotation", len(segs))
	}
	recs, _ := collect(t, fsys, "/wal", 0)
	if len(recs) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(recs), n+1)
	}
	for i, r := range recs[:n] {
		cseq := uint64(i + 1)
		if r.Session != sid || r.SessionSeq != cseq {
			t.Fatalf("record %d: session %#x seq %d, want %#x seq %d", i, r.Session, r.SessionSeq, sid, cseq)
		}
		if len(r.Values) != 3+int(cseq)%11 || r.Values[0] != float64(cseq*10) {
			t.Fatalf("record %d: values mangled alongside the session fields: %v", i, r.Values)
		}
	}
	if last := recs[n]; last.Session != 0 || last.SessionSeq != 0 {
		t.Fatalf("plain record grew a session: %+v", last)
	}
}
