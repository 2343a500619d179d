package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"mrl/internal/faultfs"
	"mrl/internal/wal"
)

// crashConfig is the small, windowless per-metric contract the crash lives
// run under; all-time serving is the durable surface under test.
func crashConfig() Config {
	return Config{Epsilon: 0.01, N: 100_000}
}

// crashOptions wires a server onto the injectable filesystem with the WAL
// at its strictest policy — the only one the zero-acked-loss invariant is
// promised under. CheckpointEvery is irrelevant: the lives below never call
// Serve, so no loops run and every checkpoint is an explicit, seeded event.
func crashOptions(mem *faultfs.Mem) Options {
	return Options{
		CheckpointPath:  "/state/ckpt",
		WALDir:          "/state/wal",
		WALSync:         wal.SyncEveryBatch,
		WALSegmentBytes: 2048, // rotate often, so crashes land on segment boundaries too
		FS:              mem,
	}
}

// TestCrashRecoveryNoAckedLoss is the headline fault harness: across many
// seeded lives, a server ingests under an injected storage fault (hard
// crash at a random operation, ENOSPC, a short write, or a failed fsync),
// the machine "reboots" with kernel-flushed torn pages (CrashPartial), and
// a second life recovers from checkpoint + WAL. The invariant, under
// SyncEveryBatch: every acknowledged observation survives, the only
// tolerated extra is the single unacknowledged batch whose append failed
// (its bytes may have reached the disk anyway), and every served quantile
// verifies against the exact oracle within its own certificate. A third
// life after a graceful shutdown must agree as well.
func TestCrashRecoveryNoAckedLoss(t *testing.T) {
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashLife(t, seed)
		})
	}
}

func runCrashLife(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := faultfs.NewMem()

	reg1, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(reg1, crashOptions(mem))
	if err != nil {
		t.Fatal(err)
	}

	data := permutation(1500 + int(seed)*13)
	var acked []float64
	var failed []float64 // the single batch whose ack failed, if any

	// Every batch takes the one ingest path, so every fault kind hits the
	// group-commit committer. Driven sequentially, each commit group holds
	// exactly one frame, which keeps the two-candidate oracle invariant
	// intact.

	// The fault fires partway through the stream; which kind depends on the
	// seed so the suite as a whole covers all of them.
	faultAt := 1 + rng.Intn(30)
	kind := seed % 4
	armed := false
	arm := func() {
		armed = true
		switch kind {
		case 0:
			mem.CrashAfter(1 + rng.Intn(40))
		case 1:
			mem.FailWrites(0, 1, nil, false) // ENOSPC
		case 2:
			mem.FailWrites(0, 1, nil, true) // short write: torn frame
		case 3:
			// Two failures: a rotation's best-effort seal sync may absorb
			// the first, and the append's own fsync must still fail.
			mem.FailSyncs(0, 2, nil)
		}
	}
	ckptAt := rng.Intn(20) // a mid-life checkpoint

	for batchIdx := 0; len(data) > 0; batchIdx++ {
		if batchIdx == ckptAt {
			// Best-effort, like the background loop: a failure here must
			// never endanger acked data. Runs before arm so a one-shot
			// fault always lands on the append it targets.
			_ = s1.saveCheckpoint()
		}
		if batchIdx == faultAt {
			arm()
		}
		n := 1 + rng.Intn(50)
		if n > len(data) {
			n = len(data)
		}
		batch := data[:n]
		data = data[n:]
		if err := s1.ingest("lat", batch, nil, nil, nil); err != nil {
			// First failed ack ends the life: the oracle stays two-candidate
			// (acked, or acked plus exactly this batch).
			failed = batch
			break
		}
		acked = append(acked, batch...)
	}
	// The one-shot faults are armed right before an append and must fail it
	// (a hard crash may legitimately outlast the stream if its op budget
	// does); a harness that stops injecting would silently prove nothing.
	if armed && kind != 0 && failed == nil {
		t.Fatal("armed fault never failed an append")
	}
	// Power loss: durable state survives, plus whatever prefix of the
	// unsynced tails the kernel happened to flush. The reboot also clears
	// any leftover injection — the replacement disk works.
	mem.CrashPartial(rng)
	mem.ClearFaults()

	// Second life: recovery is New itself.
	reg2, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(reg2, crashOptions(mem))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	verifyOracle(t, reg2, acked, failed, "second life")

	// The recovered server keeps working: more ingest, a graceful shutdown
	// (final checkpoint + WAL prune), and a third life must still agree.
	// The ingest path also has to survive recovery AND the Shutdown below,
	// which drains the committer before sealing the log.
	extra := permutation(200)
	if err := s2.ingest("lat", extra, nil, nil, nil); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after recovery: %v", err)
	}
	mem.Crash() // even a plain reboot right after shutdown

	reg3, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(reg3, crashOptions(mem)); err != nil {
		t.Fatalf("third-life recovery failed: %v", err)
	}
	verifyOracle(t, reg3, append(append([]float64(nil), acked...), extra...), failed, "third life")
}

// verifyOracle checks the two-candidate invariant: the recovered count is
// exactly the acked stream, or the acked stream plus the one failed batch;
// and every served quantile lies within its own certificate against the
// exact sorted oracle of whichever candidate matches.
func verifyOracle(t *testing.T, reg *Registry, acked, failed []float64, label string) {
	t.Helper()
	phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	res, err := reg.Quantiles("lat", phis, false)
	if err != nil {
		if len(acked) == 0 {
			return // nothing acked, nothing owed
		}
		t.Fatalf("%s: query after recovery: %v", label, err)
	}
	oracle := acked
	switch res.Count {
	case int64(len(acked)):
	case int64(len(acked) + len(failed)):
		if len(failed) > 0 {
			oracle = append(append([]float64(nil), acked...), failed...)
		}
	default:
		t.Fatalf("%s: recovered %d values, acked %d (+%d unacked at most)",
			label, res.Count, len(acked), len(failed))
	}
	if len(oracle) == 0 {
		return
	}
	sorted := append([]float64(nil), oracle...)
	sort.Float64s(sorted)
	checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, label)
}

// TestCheckpointDurableUnderCrash pins the fsync protocol of the atomic
// checkpoint write: a checkpoint that SaveCheckpointFS acked survives a
// crash, and one whose write failed leaves the previous checkpoint intact.
func TestCheckpointDurableUnderCrash(t *testing.T) {
	mem := faultfs.NewMem()
	mem.MkdirAll("/state", 0o755)
	reg, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest("m", permutation(3000)); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveCheckpointFS(mem, "/state/ckpt", 7); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	fresh, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fresh.LoadCheckpointFS(mem, "/state/ckpt")
	if err != nil {
		t.Fatalf("acked checkpoint lost in crash: %v", err)
	}
	if seq != 7 {
		t.Fatalf("walSeq %d, want 7", seq)
	}

	// A failing save must not clobber the good checkpoint, crash included.
	if err := reg.Ingest("m", permutation(1000)); err != nil {
		t.Fatal(err)
	}
	for name, inject := range map[string]func(){
		"write-enospc": func() { mem.FailWrites(0, 1, nil, false) },
		"sync-failure": func() { mem.FailSyncs(0, 1, nil) },
	} {
		inject()
		if err := reg.SaveCheckpointFS(mem, "/state/ckpt", 9); err == nil {
			t.Fatalf("%s: injected fault did not surface", name)
		}
		mem.Crash()
		again, err := NewRegistry(crashConfig())
		if err != nil {
			t.Fatal(err)
		}
		if seq, err := again.LoadCheckpointFS(mem, "/state/ckpt"); err != nil || seq != 7 {
			t.Fatalf("%s: previous checkpoint damaged: seq=%d err=%v", name, seq, err)
		}
	}
}

// TestDegradedModeServing drives the full degraded lifecycle over a real
// listener: persistent sync failures push ingest from 503 (single failed
// appends) into 429 shedding with Retry-After, healthz turns 503 with a
// reason, queries keep serving from memory the whole time, and once the
// storage recovers the WAL probe loop brings the server back on its own.
func TestDegradedModeServing(t *testing.T) {
	mem := faultfs.NewMem()
	reg, err := NewRegistry(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := crashOptions(mem)
	opt.FailureThreshold = 2
	opt.RetryMin = 5 * time.Millisecond
	opt.RetryMax = 20 * time.Millisecond
	opt.WALSyncEvery = 5 * time.Millisecond
	srv, err := New(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	mustIngest(t, base, ingestBody("lat", permutation(5000)))

	// Storage goes away for good (until cleared).
	mem.FailSyncs(0, -1, nil)

	sawUnavailable, sawShed := false, false
	var shedResp *http.Response
	for i := 0; i < 50 && !sawShed; i++ {
		resp := postBody(t, base+"/ingest", ingestBody("lat", []float64{1, 2, 3}))
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			sawUnavailable = true
			resp.Body.Close()
		case http.StatusTooManyRequests:
			sawShed = true
			shedResp = resp
		default:
			resp.Body.Close()
			t.Fatalf("ingest under persistent sync failure returned %d", resp.StatusCode)
		}
	}
	if !sawShed {
		t.Fatal("server never started shedding (429)")
	}
	if !sawUnavailable {
		t.Log("note: probe loop degraded the server before a request saw 503")
	}
	if ra := shedResp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	shedResp.Body.Close()

	// Health reflects it, with the reason; queries still serve from memory.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while degraded: %d", resp.StatusCode)
	}
	var body [512]byte
	n, _ := resp.Body.Read(body[:])
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "degraded") {
		t.Fatalf("healthz body %q lacks a degraded reason", body[:n])
	}
	q := getQuantiles(t, base, "lat", []float64{0.5}, false)
	if q.Count != 5000 {
		t.Fatalf("degraded query count %d, want 5000", q.Count)
	}

	// Storage comes back; the WAL probe loop must recover without help.
	mem.ClearFaults()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after faults cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustIngest(t, base, ingestBody("lat", []float64{4, 5, 6}))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestWALRecoveryRealFS runs one kill-and-restart cycle on the real
// filesystem: a server with the WAL enabled ingests over HTTP, the process
// "dies" without any shutdown, and a second life must recover every acked
// value from the log alone (no checkpoint was ever written) and serve
// verified quantiles.
func TestWALRecoveryRealFS(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig()
	opt := Options{
		CheckpointPath: dir + "/ckpt",
		WALDir:         dir + "/wal",
		WALSync:        wal.SyncEveryBatch,
	}
	reg1, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(reg1, opt)
	if err != nil {
		t.Fatal(err)
	}
	data := permutation(20_000)
	const chunk = 1000
	for off := 0; off < len(data); off += chunk {
		if err := s1.ingest("lat", data[off:off+chunk], nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// No shutdown: the process is gone. (The open segment file handle leaks
	// until the test binary exits, exactly like a kill -9 would.)

	reg2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(reg2, opt); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	phis := []float64{0.05, 0.5, 0.95}
	res, err := reg2.Quantiles("lat", phis, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(data)) {
		t.Fatalf("recovered %d of %d acked values", res.Count, len(data))
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, "wal-recovery")
	st := reg2.Status()
	if len(st) != 1 || st[0].ReplayedValues != int64(len(data)) {
		t.Fatalf("replay accounting %+v", st)
	}
}
