// quantiled is the standalone quantile-serving daemon: named metric
// streams are ingested over HTTP into concurrent MRL sketches (all-time)
// and tumbling-window rings (recent), and every served quantile carries the
// rank-error bound it certifies at that moment. State survives restarts
// through periodic checkpoints of the sketch wire format.
//
//	go run ./cmd/quantiled -addr :8126 -checkpoint /var/lib/quantiled.ckpt
//
//	curl -XPOST localhost:8126/ingest -d '{"metric":"lat","values":[12.3,4.5]}'
//	curl 'localhost:8126/quantile?metric=lat&phi=0.5,0.99'
//	curl 'localhost:8126/quantile?metric=lat&phi=0.99&window=true'
//	curl localhost:8126/metricsz
//
// With -cluster it runs as a stateless scatter/gather coordinator over the
// -peers node list instead: ingest is routed to each metric's owning node
// (rendezvous hashing) and queries merge per-node estimator snapshots
// through the §4.9 OUTPUT phase under the eps/h budget (docs/CLUSTER.md):
//
//	go run ./cmd/quantiled -cluster -peers http://n1:8126,http://n2:8126,http://n3:8126
//
// See docs/QUANTILED.md for the full API.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mrl/internal/cluster"
	"mrl/internal/serve"
	"mrl/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8126", "listen address")
		binAddr    = flag.String("bin-addr", "", "binary ingest listen address, e.g. :8127 (empty disables the TCP binary listener; POST /ingest/bin always works)")
		binIdle    = flag.Duration("bin-idle-timeout", 0, "close a binary ingest connection idle between frames this long (0 = 2m default, negative disables)")
		binIO      = flag.Duration("bin-io-timeout", 0, "deadline for one binary frame read or ack write once started (0 = 30s default, negative disables)")
		epsilon    = flag.Float64("epsilon", 0.001, "all-time rank-error tolerance per metric")
		n          = flag.Int64("n", 50_000_000, "all-time stream capacity the guarantee is sized for, per metric")
		windows    = flag.Int("windows", 5, "tumbling windows kept per metric (0 disables windowed serving)")
		perWindow  = flag.Int64("per-window", 1_000_000, "per-window capacity")
		windowEps  = flag.Float64("window-epsilon", 0, "per-window tolerance (0 = epsilon)")
		backend    = flag.String("backend", "mrl", "default quantile backend for new metrics: mrl, kll, or weighted")
		applyWkrs  = flag.Int("apply-workers", 0, "async apply workers draining binary ingest queues (0 = one per core, -1 = apply only at queries/rotations/checkpoints)")
		applyQueue = flag.Int("apply-queue", 0, "per-metric apply queue depth in batches (0 = 256)")
		applyShed  = flag.Bool("apply-shed", false, "shed binary batches with 429 when a metric's apply queue is full instead of blocking the connection")
		rotate     = flag.Duration("rotate-every", time.Minute, "tumble the window rings on this period (0 = only POST /rotate)")
		checkpoint = flag.String("checkpoint", "", "checkpoint file path (empty disables persistence)")
		ckptEvery  = flag.Duration("checkpoint-every", 30*time.Second, "period between checkpoints")
		walDir     = flag.String("wal-dir", "", "write-ahead-log directory (empty disables the WAL)")
		walSync    = flag.String("wal-sync", "every-batch", "WAL durability policy: every-batch, interval, or off")
		walEvery   = flag.Duration("wal-sync-every", time.Second, "flush period under -wal-sync=interval")
		walSegment = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default)")
		metrics    = flag.String("metrics", "", `comma-separated metrics to pre-register, each "name" or "name=backend"`)
		grace      = flag.Duration("grace", 10*time.Second, "shutdown grace period for draining requests")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		clusterOn  = flag.Bool("cluster", false, "run as a cluster coordinator over -peers instead of a storage node")
		peers      = flag.String("peers", "", `comma-separated peer base URLs for -cluster, e.g. "http://n1:8126,http://n2:8126"`)
		peerTO     = flag.Duration("peer-timeout", 10*time.Second, "per-node request timeout in -cluster mode")
	)
	flag.Parse()

	if *clusterOn {
		runCoordinator(*addr, *peers, *epsilon, *peerTO, *grace)
		return
	}

	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}

	reg, err := serve.NewRegistry(serve.Config{
		Epsilon:         *epsilon,
		N:               *n,
		Windows:         *windows,
		PerWindow:       *perWindow,
		WindowEpsilon:   *windowEps,
		Backend:         *backend,
		ApplyWorkers:    *applyWkrs,
		ApplyQueueDepth: *applyQueue,
		ApplyShed:       *applyShed,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, spec := range strings.Split(*metrics, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, metricBackend, hasBackend := strings.Cut(spec, "=")
		if hasBackend {
			err = reg.EnsureBackend(name, metricBackend)
		} else {
			err = reg.Ensure(name)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	// New recovers: checkpoint restore, then WAL-suffix replay.
	srv, err := serve.New(reg, serve.Options{
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *ckptEvery,
		RotateEvery:     *rotate,
		WALDir:          *walDir,
		WALSync:         syncPolicy,
		WALSyncEvery:    *walEvery,
		WALSegmentBytes: *walSegment,
		BinIdleTimeout:  *binIdle,
		BinIOTimeout:    *binIO,
		EnablePprof:     *pprofOn,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range reg.Status() {
		if st.RestoredCount > 0 || st.ReplayedValues > 0 {
			log.Printf("recovered %q: %d checkpointed + %d replayed elements", st.Name, st.RestoredCount, st.ReplayedValues)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	if *binAddr != "" {
		// ListenAndServeBinary returns nil on Shutdown, so a clean stop
		// never races an error into errCh.
		go func() {
			if err := srv.ListenAndServeBinary(*binAddr); err != nil {
				errCh <- err
			}
		}()
	}

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("shutting down (grace %v)", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatal(err)
		}
	}
}

// runCoordinator serves the -cluster coordinator: a stateless front end
// over the peer nodes, so it needs none of the storage-node machinery
// (checkpoints, WAL, windows) and ignores those flags.
func runCoordinator(addr, peers string, epsilon float64, peerTimeout, grace time.Duration) {
	var nodes []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			nodes = append(nodes, p)
		}
	}
	coord, err := cluster.New(cluster.Config{
		Nodes:   nodes,
		Epsilon: epsilon,
		Timeout: peerTimeout,
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("quantiled coordinator listening on %s over %d nodes (height %d)", addr, len(nodes), coord.Height())
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("shutting down (grace %v)", grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatal(err)
		}
	}
}
