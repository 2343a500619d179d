package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mrl/internal/faultfs"
	"mrl/internal/faultnet"
)

// chaosSeeds reads the CHAOS_SEEDS override (default 8; CI and `make chaos`
// raise it). Every seed is an independent, deterministic fault schedule.
func chaosSeeds(t *testing.T) int64 {
	raw := os.Getenv("CHAOS_SEEDS")
	if raw == "" {
		return 8
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 1 {
		t.Fatalf("CHAOS_SEEDS=%q: want a positive integer", raw)
	}
	return n
}

// chaosHarness owns the server side of one chaos life sequence: it runs the
// binary ingest listener over a crash-injectable filesystem, hands the
// client the address of whichever life is current, and replaces lives on
// hard kills (process gone: listener and connections torn, power lost,
// kernel flushes an arbitrary prefix of the unsynced tails) and graceful
// restarts (Shutdown: final checkpoint, WAL sealed).
type chaosHarness struct {
	t   *testing.T
	mem *faultfs.Mem
	cfg Config

	mu   sync.Mutex
	addr string

	reg      *Registry
	s        *Server
	serveErr chan error
}

func newChaosHarness(t *testing.T) *chaosHarness {
	return newChaosHarnessCfg(t, crashConfig())
}

// newChaosHarnessCfg runs the harness under a non-default registry config
// (every life, recoveries included, uses it).
func newChaosHarnessCfg(t *testing.T, cfg Config) *chaosHarness {
	h := &chaosHarness{t: t, mem: faultfs.NewMem(), cfg: cfg}
	h.start()
	return h
}

// start brings up a fresh life: recovery is New itself, exactly like a
// process restart.
func (h *chaosHarness) start() {
	h.t.Helper()
	reg, err := NewRegistry(h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	s, err := New(reg, crashOptions(h.mem))
	if err != nil {
		h.t.Fatalf("life failed to recover: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	h.addr = ln.Addr().String()
	h.mu.Unlock()
	h.reg = reg
	h.s = s
	h.serveErr = make(chan error, 1)
	go func() { h.serveErr <- s.ServeBinary(ln) }()
	// ServeBinary registers the listener as its first step; wait for that so
	// an immediate kill cannot race the registration and strand the accept
	// goroutine behind a closeBinary it never saw.
	for {
		s.mu.Lock()
		registered := len(s.binLns) > 0
		s.mu.Unlock()
		if registered {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// currentAddr is what the retrying client dials: each life listens on a
// fresh port, like a restarted process behind re-resolved DNS.
func (h *chaosHarness) currentAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addr
}

// reap waits out the previous life's accept loop.
func (h *chaosHarness) reap() {
	h.t.Helper()
	if err := <-h.serveErr; err != nil {
		h.t.Fatalf("ServeBinary: %v", err)
	}
}

// kill is the hard death: the listener and every live connection are torn
// down (in-flight handlers run to completion first — their appends were
// racing the power cut, and whichever synced, survive it), then power loss
// flushes an arbitrary prefix of the unsynced tails, then a new life
// recovers. The old server object is abandoned without Shutdown — no final
// checkpoint, no WAL close — which is precisely what kill -9 leaves behind.
func (h *chaosHarness) kill(rng *rand.Rand) {
	h.t.Helper()
	h.s.closeBinary()
	h.reap()
	h.mem.CrashPartial(rng)
	h.mem.ClearFaults()
	h.start()
}

// restart is the graceful path: Shutdown writes the final checkpoint (v4,
// session marks included) and seals the WAL, then a reboot and a new life.
func (h *chaosHarness) restart() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.s.Shutdown(ctx); err != nil {
		h.t.Fatalf("graceful shutdown: %v", err)
	}
	h.reap()
	h.mem.Crash()
	h.start()
}

// TestChaosExactlyOnce is the headline exactly-once harness: a sessioned
// BinClient streams a known permutation at a quantiled binary listener
// while a seeded fault schedule injects network faults (latency, mid-frame
// resets, read resets, ack blackholes), severs every connection at once,
// hard-kills the server with torn-page power loss, restarts it gracefully,
// and cuts checkpoints mid-flight. The client retries, reconnects, and
// replays through all of it. The invariant, proven against the exact
// oracle: after a final fault-free drain, the recovered registry holds
// EVERY acknowledged value EXACTLY once — no acked loss, no double count —
// and every served quantile verifies within its certificate.
//
// CHAOS_SEEDS scales the schedule count (default 8; `make chaos` runs 40).
func TestChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is seconds-long; skipped under -short")
	}
	seeds := chaosSeeds(t)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosLife(t, seed)
		})
	}
}

func runChaosLife(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	h := newChaosHarness(t)

	// The fault mix varies per seed so the suite covers quiet wires, flaky
	// wires, and outright hostile ones. Blackholes are the expensive fault
	// (each costs one AckTimeout), so their probability stays low.
	injector := faultnet.New(faultnet.Options{
		Seed:          seed,
		LatencyMax:    time.Duration(rng.Intn(3)) * 300 * time.Microsecond,
		WriteFailProb: 0.01 + rng.Float64()*0.04,
		ReadFailProb:  0.01 + rng.Float64()*0.04,
		BlackholeProb: rng.Float64() * 0.02,
	})

	// Half the seeds run with the circuit breaker armed, so the
	// drop-with-count degradation is exercised too; its drops are the one
	// legitimate reason a value may be missing, and they are counted.
	breaker := -1
	if seed%2 == 1 {
		breaker = 4
	}
	client, err := NewBinClient(BinClientOptions{
		Addr:             "chaos", // resolved by Dial below, per life
		Dial:             injector.Dialer(func(string) (net.Conn, error) { return net.DialTimeout("tcp", h.currentAddr(), time.Second) }),
		Metric:           "lat",
		SessionID:        uint64(seed)*2 + 1,
		RetryMin:         time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		AckTimeout:       250 * time.Millisecond,
		MaxInflight:      1 + rng.Intn(8),
		BreakerThreshold: breaker,
		BreakerCooldown:  10 * time.Millisecond,
		Rand:             rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}

	data := permutation(3000 + int(seed)*37)
	var oracle []float64 // every value the client reports as delivered
	var dropped uint64   // breaker drops: never enqueued, never owed

	for len(data) > 0 {
		// The event schedule: rare, seeded, and independent per batch, so
		// kills land before, between, and after retries of the same batch.
		switch {
		case rng.Intn(45) == 0:
			h.kill(rng)
		case rng.Intn(45) == 0:
			h.restart()
		case rng.Intn(30) == 0:
			injector.SeverAll()
		case rng.Intn(30) == 0:
			_ = h.s.saveCheckpoint() // best-effort, like the background loop
		}
		n := 1 + rng.Intn(40)
		if n > len(data) {
			n = len(data)
		}
		batch := data[:n]
		data = data[n:]
		switch err := client.Send(batch); {
		case err == nil:
			// Enqueued: the delivery contract owes this batch an ack.
			oracle = append(oracle, batch...)
		case errors.Is(err, ErrBreakerOpen):
			dropped += uint64(n)
		default:
			t.Fatalf("send: %v", err)
		}
	}

	// Final drain: the network heals, the current life stays up, and every
	// enqueued batch must land. On a sessioned stream Flush can only return
	// nil — there is no maybe-applied bucket to report.
	injector.Disable()
	if err := client.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	st := client.Stats()
	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if st.RejectedBatches != 0 {
		t.Fatalf("server rejected %d batches of valid data", st.RejectedBatches)
	}
	if st.AckedValues != uint64(len(oracle)) {
		t.Fatalf("acked %d values, enqueued %d", st.AckedValues, len(oracle))
	}
	if st.DroppedValues != dropped {
		t.Fatalf("client counted %d dropped values, harness %d", st.DroppedValues, dropped)
	}

	verifyChaosOracle(t, h.reg, oracle, "live")

	// One more full death after the drain: the exactly-once state must be
	// durable, not resident. A graceful shutdown then a fresh life has to
	// serve the identical answer.
	h.restart()
	verifyChaosOracle(t, h.reg, oracle, "recovered")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.s.Shutdown(ctx); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	h.reap()
}

// TestChaosKillWithBacklog is the async-apply extension of the chaos
// harness: the registry runs with the worker pool disabled and a huge queue
// depth, so every acked batch sits in its metric's apply queue — acked,
// durable, NOT yet in the sketch — and the server is hard-killed (torn-page
// power loss included) exactly in that state. The exactly-once invariant must
// hold anyway: an acked-but-unapplied batch is by construction in the WAL, so
// recovery replays it, and the recovered registry holds every acknowledged
// value exactly once — nothing lost from the queues, nothing double-applied
// by the replay.
//
// (The worker pool is disabled rather than raced because a live worker
// shrinks the window; with barriers-only draining the backlog at kill time is
// the entire acked stream since the last query, the worst case.)
func TestChaosKillWithBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is seconds-long; skipped under -short")
	}
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed*6007 + 11))
			cfg := crashConfig()
			// Barriers-only draining + an effectively unbounded queue: the
			// whole acked stream backs up. (Bounded depth with the block
			// policy and no workers would deadlock the final checkpoint —
			// see docs/OPERATIONS.md.)
			cfg.ApplyWorkers = -1
			cfg.ApplyQueueDepth = 1 << 20
			h := newChaosHarnessCfg(t, cfg)

			client, err := NewBinClient(BinClientOptions{
				Addr:        "chaos",
				Dial:        func(string) (net.Conn, error) { return net.DialTimeout("tcp", h.currentAddr(), time.Second) },
				Metric:      "lat",
				SessionID:   uint64(seed)*2 + 1,
				RetryMin:    time.Millisecond,
				RetryMax:    20 * time.Millisecond,
				AckTimeout:  250 * time.Millisecond,
				MaxInflight: 1 + rng.Intn(8),
				Rand:        rand.New(rand.NewSource(seed)),
			})
			if err != nil {
				t.Fatal(err)
			}

			data := permutation(2000 + int(seed)*61)
			var oracle []float64
			kills := 0
			for len(data) > 0 {
				n := 1 + rng.Intn(40)
				if n > len(data) {
					n = len(data)
				}
				batch := data[:n]
				data = data[n:]
				if err := client.Send(batch); err != nil {
					t.Fatalf("send: %v", err)
				}
				oracle = append(oracle, batch...)
				// A few times per life: drain the client (everything acked),
				// prove the acked batches are still queued unapplied, and
				// pull the plug on exactly that state.
				if rng.Intn(12) == 0 && len(data) > 0 {
					if err := client.Flush(); err != nil {
						t.Fatalf("flush: %v", err)
					}
					if pending := h.reg.ApplyStatus().PendingBatches; pending == 0 {
						t.Fatalf("no batches pending before the kill; the schedule is not testing the backlog window")
					}
					kills++
					h.kill(rng)
				}
			}
			if err := client.Flush(); err != nil {
				t.Fatalf("final flush: %v", err)
			}
			st := client.Stats()
			if err := client.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if kills == 0 {
				// The schedule fires with probability ~1-(11/12)^50 per life;
				// a seed that never killed proves nothing.
				t.Fatalf("schedule never killed the server; widen the kill probability")
			}
			if st.AckedValues != uint64(len(oracle)) {
				t.Fatalf("acked %d values, enqueued %d", st.AckedValues, len(oracle))
			}
			verifyChaosOracle(t, h.reg, oracle, "live")

			// The acked tail of the final life is still queued; a graceful
			// restart must checkpoint it (drain barrier) and serve it back.
			h.restart()
			verifyChaosOracle(t, h.reg, oracle, "recovered")

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := h.s.Shutdown(ctx); err != nil {
				t.Fatalf("final shutdown: %v", err)
			}
			h.reap()
		})
	}
}

// verifyChaosOracle is the differential proof: the count must EXACTLY equal
// the delivered oracle — one missing value is acked loss, one extra is a
// double count — and every quantile must verify within its certificate.
func verifyChaosOracle(t *testing.T, reg *Registry, oracle []float64, label string) {
	t.Helper()
	phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	res, err := reg.Quantiles("lat", phis, false)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Count != int64(len(oracle)) {
		t.Fatalf("%s: count %d, oracle %d (missing = acked loss, extra = double count)",
			label, res.Count, len(oracle))
	}
	sorted := append([]float64(nil), oracle...)
	sort.Float64s(sorted)
	checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, label)
}
