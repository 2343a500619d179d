package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mrl/internal/faultfs"
	"mrl/internal/faultnet"
	"mrl/internal/serve"
	"mrl/internal/wal"
)

// chaosSeeds reads the CHAOS_SEEDS override (default 8; CI and `make
// chaos` raise it). Every seed is an independent, deterministic fault
// schedule.
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

// chaosNode is one storage node of a chaos cluster: a quantiled server
// over a crash-injectable filesystem, reborn on every kill or restart with
// fresh listeners on fresh ports — a restarted process behind re-resolved
// DNS. The filesystem (checkpoint + WAL) is the only thing a death keeps.
type chaosNode struct {
	t   *testing.T
	mem *faultfs.Mem
	cfg serve.Config

	mu       sync.Mutex
	httpAddr string
	binAddr  string

	srv     *serve.Server
	httpErr chan error
	binErr  chan error
}

func newChaosNode(t *testing.T, cfg serve.Config) *chaosNode {
	n := &chaosNode{t: t, mem: faultfs.NewMem(), cfg: cfg}
	n.start()
	return n
}

// start brings up a fresh life; recovery (checkpoint restore + WAL-suffix
// replay) is serve.New itself. It returns only once the HTTP side answers,
// so a kill scheduled right after start cannot race Serve's registration
// and strand its goroutine.
func (n *chaosNode) start() {
	n.t.Helper()
	reg, err := serve.NewRegistry(n.cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	srv, err := serve.New(reg, serve.Options{
		CheckpointPath:  "/state/ckpt",
		WALDir:          "/state/wal",
		WALSync:         wal.SyncEveryBatch,
		WALSegmentBytes: 2048,
		FS:              n.mem,
	})
	if err != nil {
		n.t.Fatalf("node life failed to recover: %v", err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.t.Fatal(err)
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.t.Fatal(err)
	}
	n.mu.Lock()
	n.httpAddr = httpLn.Addr().String()
	n.binAddr = binLn.Addr().String()
	n.mu.Unlock()
	n.srv = srv
	n.httpErr = make(chan error, 1)
	n.binErr = make(chan error, 1)
	go func() { n.httpErr <- srv.Serve(httpLn) }()
	go func() { n.binErr <- srv.ServeBinary(binLn) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := http.Get("http://" + n.HTTPAddr() + "/healthz")
		if err == nil {
			_ = res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			n.t.Fatal("node life never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

func (n *chaosNode) HTTPAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.httpAddr
}

func (n *chaosNode) BinAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.binAddr
}

// reap waits out the previous life's serve goroutines. A binary accept
// loop that lost the registration race to Kill reports "shut down" — that
// life simply never accepted, which is a legitimate crash outcome.
func (n *chaosNode) reap() {
	n.t.Helper()
	if err := <-n.httpErr; err != nil {
		n.t.Fatalf("Serve: %v", err)
	}
	if err := <-n.binErr; err != nil && !strings.Contains(err.Error(), "shut down") {
		n.t.Fatalf("ServeBinary: %v", err)
	}
}

// kill is the hard death: listeners and connections torn down with no
// drain and no final checkpoint, power loss flushes an arbitrary prefix of
// the unsynced tails, and a new life recovers from what survived.
func (n *chaosNode) kill(rng *rand.Rand) {
	n.t.Helper()
	n.srv.Kill()
	n.reap()
	n.mem.CrashPartial(rng)
	n.mem.ClearFaults()
	n.start()
}

// restart is the graceful path: Shutdown seals the state, then a reboot.
func (n *chaosNode) restart() {
	n.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.t.Fatalf("graceful shutdown: %v", err)
	}
	n.reap()
	n.mem.Crash()
	n.start()
}

func (n *chaosNode) stop() {
	n.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.t.Fatalf("final shutdown: %v", err)
	}
	n.reap()
}

// TestChaosClusterShardKillExactlyOnce is the cluster extension of the
// exactly-once harness: three storage nodes each take one contiguous slice
// of a known permutation over sessioned binary clients while a seeded
// schedule hard-kills nodes mid-stream (torn-page power loss included),
// restarts them gracefully, and injects wire faults. The invariant: after
// a fault-free drain, a FRESH coordinator over the survivors' current
// addresses serves the exact global count — every acked value exactly
// once across every node death — and every quantile verifies within the
// certificate it serves.
func TestChaosClusterShardKillExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is seconds-long; skipped under -short")
	}
	seeds := chaosSeeds(t)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runClusterChaosLife(t, seed)
		})
	}
}

func runClusterChaosLife(t *testing.T, seed int64) {
	const nNodes = 3
	rng := rand.New(rand.NewSource(seed*7919 + 23))
	perNode := 2400 + int(seed)*13
	total := nNodes * perNode
	data := clusterPerm(total, seed)
	sorted := make([]float64, total)
	copy(sorted, data)
	sort.Float64s(sorted)

	epsNode, nNode, _ := NodeProvision(0.01, int64(total), nNodes)
	nodes := make([]*chaosNode, nNodes)
	for i := range nodes {
		nodes[i] = newChaosNode(t, serve.Config{Epsilon: epsNode, N: nNode})
	}

	injector := faultnet.New(faultnet.Options{
		Seed:          seed,
		LatencyMax:    time.Duration(rng.Intn(3)) * 300 * time.Microsecond,
		WriteFailProb: 0.01 + rng.Float64()*0.03,
		ReadFailProb:  0.01 + rng.Float64()*0.03,
		BlackholeProb: rng.Float64() * 0.015,
	})

	clients := make([]*serve.BinClient, nNodes)
	remaining := make([][]float64, nNodes)
	for i := range clients {
		node := nodes[i]
		client, err := serve.NewBinClient(serve.BinClientOptions{
			Addr:             fmt.Sprintf("chaos-node-%d", i),
			Dial:             injector.Dialer(func(string) (net.Conn, error) { return net.DialTimeout("tcp", node.BinAddr(), time.Second) }),
			Metric:           "lat",
			SessionID:        uint64(seed)*16 + uint64(i) + 1,
			RetryMin:         time.Millisecond,
			RetryMax:         20 * time.Millisecond,
			AckTimeout:       250 * time.Millisecond,
			MaxInflight:      1 + rng.Intn(8),
			BreakerThreshold: -1, // the oracle must stay exact: no shedding
			Rand:             rand.New(rand.NewSource(seed + int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client
		remaining[i] = data[i*perNode : (i+1)*perNode]
	}

	// Round-robin the three streams so a node death always lands while the
	// other shards are mid-stream. Kills are rare (each costs a recovery)
	// and seeded, so they land before, between, and after retries.
	for {
		live := false
		for i := range clients {
			if len(remaining[i]) == 0 {
				continue
			}
			live = true
			switch {
			case rng.Intn(60) == 0:
				nodes[rng.Intn(nNodes)].kill(rng)
			case rng.Intn(60) == 0:
				nodes[rng.Intn(nNodes)].restart()
			case rng.Intn(40) == 0:
				injector.SeverAll()
			}
			n := 1 + rng.Intn(40)
			if n > len(remaining[i]) {
				n = len(remaining[i])
			}
			if err := clients[i].Send(remaining[i][:n]); err != nil {
				t.Fatalf("client %d send: %v", i, err)
			}
			remaining[i] = remaining[i][n:]
		}
		if !live {
			break
		}
	}

	// Final drain over a healed network: every enqueued batch must land on
	// whatever life its node is currently on.
	injector.Disable()
	for i, client := range clients {
		if err := client.Flush(); err != nil {
			t.Fatalf("client %d final flush: %v", i, err)
		}
		st := client.Stats()
		if err := client.Close(); err != nil {
			t.Fatalf("client %d close: %v", i, err)
		}
		if st.RejectedBatches != 0 {
			t.Fatalf("client %d: server rejected %d batches of valid data", i, st.RejectedBatches)
		}
		if st.AckedValues != uint64(perNode) {
			t.Fatalf("client %d: acked %d values, streamed %d", i, st.AckedValues, perNode)
		}
	}

	// The verdict comes from a coordinator built AFTER the chaos, over the
	// nodes' current addresses — the scatter/gather read path against
	// whatever the deaths left behind.
	urls := make([]string, nNodes)
	for i, n := range nodes {
		urls[i] = "http://" + n.HTTPAddr()
	}
	coord, err := New(Config{Nodes: urls, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	res, err := coord.Query(context.Background(), "lat", phis)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(total) {
		t.Fatalf("cluster holds %d values, oracle %d — exactly-once broken across node deaths", res.Count, total)
	}
	if res.Partial || len(res.Missing) != 0 {
		t.Fatalf("all nodes are up, yet the answer is degraded: partial %v, missing %v", res.Partial, res.Missing)
	}
	if res.ErrorBound <= 0 {
		t.Fatalf("served bound %v is not positive", res.ErrorBound)
	}
	for i, phi := range phis {
		if e := rankErr(sorted, phi, res.Values[i]); e > res.ErrorBound {
			t.Errorf("phi %v: rank error %v exceeds served bound %v", phi, e, res.ErrorBound)
		}
	}

	for _, n := range nodes {
		n.stop()
	}
}

// TestChaosClusterQueryDegraded drives the degradation contract through a
// seeded schedule of node deaths and revivals: every answer must be
// certified for exactly the population the live nodes hold — partial and
// flagged when shards are missing, full again on revival, an error only
// when nothing is reachable, and never stale.
func TestChaosClusterQueryDegraded(t *testing.T) {
	seeds := chaosSeeds(t)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed*104729 + 7))
			const total, nNodes = 6000, 3
			data := clusterPerm(total, seed+1000)
			epsNode, nNode, _ := NodeProvision(0.01, total, nNodes)
			nodes, coord, tr := newMemCluster(t, nNodes, serve.Config{Epsilon: epsNode, N: nNode}, 0.01)
			per := total / nNodes
			for i, node := range nodes {
				if err := node.reg.Ingest("lat", data[i*per:(i+1)*per]); err != nil {
					t.Fatal(err)
				}
			}
			phis := []float64{0.05, 0.5, 0.95}

			down := make([]bool, nNodes)
			for round := 0; round < 12; round++ {
				flip := rng.Intn(nNodes)
				down[flip] = !down[flip]
				tr.setDown(nodes[flip].host, down[flip])

				var covered []float64
				var missing []string
				for i, d := range down {
					if d {
						missing = append(missing, nodes[i].host)
					} else {
						covered = append(covered, data[i*per:(i+1)*per]...)
					}
				}

				res, err := coord.Query(context.Background(), "lat", phis)
				if len(covered) == 0 {
					if err == nil {
						t.Fatalf("round %d: every node is down, yet the query answered", round)
					}
					continue
				}
				if err != nil {
					t.Fatalf("round %d: %d nodes alive, yet the query failed: %v", round, nNodes-len(missing), err)
				}
				if res.Count != int64(len(covered)) {
					t.Fatalf("round %d: answer covers %d values, live shards hold %d — stale or lossy", round, res.Count, len(covered))
				}
				if res.Partial != (len(missing) > 0) || res.Nodes != nNodes-len(missing) {
					t.Fatalf("round %d: certificate {partial %v, nodes %d} with %d dead", round, res.Partial, res.Nodes, len(missing))
				}
				if len(res.Missing) != len(missing) {
					t.Fatalf("round %d: reported missing %v, dead %v", round, res.Missing, missing)
				}
				for _, host := range missing {
					found := false
					for _, m := range res.Missing {
						if strings.Contains(m, host) {
							found = true
						}
					}
					if !found {
						t.Fatalf("round %d: dead node %s not named in %v", round, host, res.Missing)
					}
				}
				sort.Float64s(covered)
				for i, phi := range phis {
					if e := rankErr(covered, phi, res.Values[i]); e > res.ErrorBound {
						t.Errorf("round %d, phi %v: rank error %v exceeds served bound %v over the covered population", round, phi, e, res.ErrorBound)
					}
				}
			}
		})
	}
}
