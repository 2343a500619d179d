// Command quantileload drives a quantiled daemon's binary ingest listener
// (quantiled -bin-addr) at high rates and measures it with its own
// instruments: every batch ack's latency is folded into a local KLL
// estimator, and the same samples are pushed back into the daemon under a
// dedicated metric (__load.latency by default) — so the daemon serves the
// latency distribution of its own load test.
//
// The generator is open-loop: batch send times are scheduled from -rate
// alone, never from ack arrival, so a slow server accumulates queueing
// delay instead of silently throttling the offered load. Each connection
// runs a resilient sessioned client: up to -inflight unacked batches
// pipeline on the wire, lost connections are retried with capped exponential
// backoff, and unacknowledged batches replay on reconnect with exactly-once
// delivery; -breaker degrades a persistently unreachable server to
// drop-with-count.
//
// Usage:
//
//	quantileload -addr :8127 -conns 8 -batch 4096 -duration 30s        (unpaced)
//	quantileload -addr :8127 -rate 2e6 -kind zipf -param 1.2           (2M values/sec)
//
// Kinds are cmd/genstream's workloads: sorted, reversed, zigzag, organpipe,
// shuffled, blocked, uniform, normal, lognormal, exponential, zipf,
// discrete, mixture.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mrl/internal/serve"
	"mrl/internal/stream"
	"mrl/quantile"
)

var (
	addr      = flag.String("addr", "localhost:8127", "daemon binary ingest address (quantiled -bin-addr)")
	peers     = flag.String("peers", "", "comma-separated binary ingest addresses of cluster nodes; connection i targets peer i mod N (overrides -addr for load connections)")
	conns     = flag.Int("conns", 4, "concurrent ingest connections")
	rate      = flag.Float64("rate", 0, "target values/sec across all connections (0 = unpaced)")
	batchSize = flag.Int("batch", 1024, "values per batch frame")
	duration  = flag.Duration("duration", 10*time.Second, "load duration")
	inflight  = flag.Int("inflight", 32, "max unacked batches per connection")
	metric    = flag.String("metric", "load", "target metric name")
	backend   = flag.String("backend", "", "backend tag sent in the dict frame (empty = daemon default)")
	kind      = flag.String("kind", "shuffled", "workload kind (see doc)")
	cycle     = flag.Float64("cycle", 1e6, "values per workload pass (the source rewinds and repeats)")
	seed      = flag.Int64("seed", 42, "workload seed; connection i uses seed+i")
	param     = flag.Float64("param", 1.5, "distribution parameter (zipf s, exponential rate, normal stddev, lognormal sigma)")
	mean      = flag.Float64("mean", 0, "mean / mu for normal and lognormal")
	domain    = flag.Float64("domain", 1e6, "domain size for zipf and discrete")
	blocks    = flag.Int("blocks", 64, "block count for the blocked arrival order")
	latMetric = flag.String("latency-metric", "__load.latency", "metric to push observed ack latencies (ms) into (empty disables)")
	latEvery  = flag.Duration("latency-every", time.Second, "period between latency pushes")

	httpAddr   = flag.String("http-addr", "", "daemon HTTP address (quantiled -addr, e.g. localhost:8126); when set, /metricsz is fetched at exit and the apply pipeline's applied-vs-acked lag is reported")
	reportJSON = flag.Bool("report-json", false, "emit the final report as one JSON object on stdout (for CI assertions); the human-readable report moves to stderr")
	session    = flag.Int64("session", 0, "base client session id; connection i uses session+i (0 = random per connection)")
	retryMin   = flag.Duration("retry-min", 100*time.Millisecond, "reconnect/retry backoff floor")
	retryMax   = flag.Duration("retry-max", 5*time.Second, "reconnect/retry backoff cap")
	ackTimeout = flag.Duration("ack-timeout", 10*time.Second, "deadline for one ack read before tearing down and reconnecting")
	breaker    = flag.Int("breaker", 8, "consecutive connection failures that open the circuit breaker (new batches dropped-with-count instead of blocking; negative disables)")
)

// counters aggregates across connections; all fields are atomics.
type counters struct {
	batches      atomic.Int64 // batches handed to the client (enqueued)
	values       atomic.Int64 // values handed to the client
	acked        atomic.Int64 // batches acknowledged applied
	valuesAcked  atomic.Int64 // values the acks accepted
	rejected     atomic.Int64 // batches the server refused as bad requests
	breakerDrops atomic.Int64 // batches dropped by an open circuit breaker
	reconnects   atomic.Int64 // connections re-established after the first
	dropped      atomic.Int64 // latency samples dropped (collector backlog)
	lastErr      atomic.Value // string: most recent delivery error message
	transportErr atomic.Value // string: most recent connection failure
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("quantileload: ")
	flag.Parse()
	if *conns < 1 || *batchSize < 1 || *inflight < 1 {
		log.Fatalf("-conns, -batch and -inflight must be positive")
	}
	if *batchSize > 1_000_000 {
		log.Fatalf("-batch %d exceeds the 1M-value frame cap", *batchSize)
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerAddrs = append(peerAddrs, p)
		}
	}

	// Per-connection open-loop pacing interval: rate is shared evenly.
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(*batchSize) * float64(*conns) / *rate)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var stats counters
	lats := make(chan time.Duration, 8192)
	collectorDone := make(chan *quantile.KLL, 1)
	go collect(lats, &stats, collectorDone)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			if err := runConn(ctx, idx, interval, start, lats, &stats); err != nil {
				stats.transportErr.Store(err.Error())
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(lats)
	est := <-collectorDone

	var apply *applyz
	if *httpAddr != "" {
		var err error
		if apply, err = fetchApply(*httpAddr); err != nil {
			log.Printf("applied-lag fetch disabled: %v", err)
		}
	}
	report(est, &stats, elapsed, apply)
	if stats.acked.Load() == 0 {
		os.Exit(1)
	}
}

// applyz is the daemon's /metricsz "apply" block — the async apply
// pipeline's live counters. PendingBatches is the applied-vs-acked lag:
// batches the daemon acknowledged (durable in the WAL) but has not folded
// into a sketch yet; any query drains the queried metric's share to zero
// first, so the lag is a staleness ceiling for /metricsz counters only.
type applyz struct {
	Workers          int     `json:"workers"`
	QueueDepth       int     `json:"queueDepth"`
	Policy           string  `json:"policy"`
	PendingBatches   uint64  `json:"pendingBatches"`
	EnqueuedBatches  int64   `json:"enqueuedBatches"`
	AppliedBatches   int64   `json:"appliedBatches"`
	CoalescedBatches int64   `json:"coalescedBatches"`
	CoalescedRatio   float64 `json:"coalescedRatio"`
	ShedBatches      int64   `json:"shedBatches"`
	BlockedEnqueues  int64   `json:"blockedEnqueues"`
}

// fetchApply reads the apply block out of GET /metricsz.
func fetchApply(addr string) (*applyz, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: %s", resp.Status)
	}
	var body struct {
		Apply applyz `json:"apply"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return &body.Apply, nil
}

// runConn owns one connection through the resilient serve.BinClient: it
// paces batches open-loop and hands them to Send, which pipelines up to
// -inflight unacked batches, retries with capped exponential backoff,
// reconnects, and replays unacknowledged batches with exactly-once
// semantics. Ack latencies arrive through the OnAck callback, measured from
// enqueue so retries and reconnects are *in* the reported distribution, not
// hidden by it.
// peerAddrs is the parsed -peers list; empty means every connection dials
// -addr. Spreading connections round-robin over a cluster's node listeners
// is the multi-node load topology: each connection holds its own session,
// so per-node exactly-once is preserved.
var peerAddrs []string

func connAddr(idx int) string {
	if len(peerAddrs) == 0 {
		return *addr
	}
	return peerAddrs[idx%len(peerAddrs)]
}

func runConn(ctx context.Context, idx int, interval time.Duration, start time.Time, lats chan<- time.Duration, stats *counters) error {
	src, err := buildSource(*kind, int64(*cycle), *seed+int64(idx))
	if err != nil {
		return err
	}
	var sid uint64
	if *session != 0 {
		sid = uint64(*session) + uint64(idx)
	}
	client, err := serve.NewBinClient(serve.BinClientOptions{
		Addr:             connAddr(idx),
		Metric:           *metric,
		Backend:          *backend,
		SessionID:        sid,
		RetryMin:         *retryMin,
		RetryMax:         *retryMax,
		AckTimeout:       *ackTimeout,
		MaxInflight:      *inflight,
		BreakerThreshold: *breaker,
		OnAck: func(values int, latency time.Duration) {
			stats.acked.Add(1)
			stats.valuesAcked.Add(int64(values))
			select {
			case lats <- latency:
			default:
				stats.dropped.Add(1)
			}
		},
		Logf: func(format string, args ...any) {
			log.Printf("conn %d: "+format, append([]any{idx}, args...)...)
		},
		// No Rand here: -seed makes the *data* deterministic, but seeding
		// the client with it would also make the random session id
		// deterministic — two loader processes with the same seed would
		// collide, and the server would dedup one's batches as replays of
		// the other's. Session identity must come from -session or from
		// the client's own collision-free draw.
	})
	if err != nil {
		return err
	}

	vals := make([]float64, 0, *batchSize)
	deadline := start.Add(*duration)
	next := time.Now()
	for ctx.Err() == nil && time.Now().Before(deadline) {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
			next = next.Add(interval)
		}
		vals = vals[:0]
		for len(vals) < *batchSize {
			v, ok := src.Next()
			if !ok {
				src.Reset()
				continue
			}
			vals = append(vals, v)
		}
		switch err := client.Send(vals); {
		case err == nil:
			stats.batches.Add(1)
			stats.values.Add(int64(len(vals)))
		case errors.Is(err, serve.ErrBreakerOpen):
			// Degraded to drop-with-count: the batch was never enqueued.
			stats.breakerDrops.Add(1)
		default:
			return err
		}
	}
	if err := client.Flush(); err != nil {
		stats.lastErr.Store(err.Error())
	}
	st := client.Stats()
	stats.reconnects.Add(int64(st.Reconnects))
	stats.rejected.Add(int64(st.RejectedBatches))
	return client.Close()
}

// collect folds latency samples into the local estimator and periodically
// pushes the same samples into the daemon under -latency-metric, over its
// own binary connection. The daemon then serves the load test's own p99.
func collect(lats <-chan time.Duration, stats *counters, done chan<- *quantile.KLL) {
	est, err := quantile.NewKLL(quantile.Config{Epsilon: 0.001, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	var push *pusher
	pushBroken := false
	var pending []float64
	flush := func() {
		if *latMetric == "" || len(pending) == 0 || pushBroken {
			pending = pending[:0]
			return
		}
		if push == nil {
			if push, err = dialPusher(*addr, *latMetric); err != nil {
				log.Printf("latency push disabled: %v", err)
				pushBroken = true
				pending = pending[:0]
				return
			}
		}
		if err := push.push(pending); err != nil {
			log.Printf("latency push disabled: %v", err)
			pushBroken = true
		}
		pending = pending[:0]
	}
	tick := time.NewTicker(*latEvery)
	defer tick.Stop()
	for {
		select {
		case lat, ok := <-lats:
			if !ok {
				flush()
				if push != nil {
					push.close()
				}
				done <- est
				return
			}
			ms := float64(lat) / float64(time.Millisecond)
			est.Add(ms)
			if *latMetric != "" && !pushBroken {
				pending = append(pending, ms)
			}
		case <-tick.C:
			flush()
		}
	}
}

// pusher is the minimal synchronous client used for the latency metric:
// one batch frame out, one ack back.
type pusher struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	buf  []byte
}

func dialPusher(addr, metric string) (*pusher, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &pusher{conn: conn, bw: bufio.NewWriterSize(conn, 1<<15), br: bufio.NewReaderSize(conn, 1<<10)}
	// The latency stream's length is unknown by construction, so tag the
	// KLL backend; a pre-registered metric with another backend rejects the
	// dict frame and the push is disabled with that message. The batches
	// are unsequenced: a latency sample lost with its ack is not worth a
	// session.
	p.buf = serve.AppendBinPrologueV2(p.buf)
	p.buf = serve.AppendDictFrame(p.buf, 1, metric, "kll")
	if _, err := p.bw.Write(p.buf); err != nil {
		conn.Close()
		return nil, err
	}
	return p, nil
}

func (p *pusher) push(vals []float64) error {
	for len(vals) > 0 {
		n := len(vals)
		if n > 65536 {
			n = 65536
		}
		p.buf = serve.AppendBatchFrame(p.buf[:0], 1, vals[:n], nil)
		vals = vals[n:]
		if _, err := p.bw.Write(p.buf); err != nil {
			return err
		}
		if err := p.bw.Flush(); err != nil {
			return err
		}
		ack, err := serve.ReadBinAck(p.br)
		if err != nil {
			return err
		}
		if !ack.OK() {
			return errors.New(ack.Msg)
		}
	}
	return nil
}

func (p *pusher) close() { p.conn.Close() }

// jsonReport is the -report-json schema: everything the text report says, as
// one machine-readable object for CI to assert on.
type jsonReport struct {
	Addr          string  `json:"addr"`
	Conns         int     `json:"conns"`
	BatchSize     int     `json:"batchSize"`
	RateTarget    float64 `json:"rateTarget,omitempty"`
	ElapsedSec    float64 `json:"elapsedSec"`
	SentBatches   int64   `json:"sentBatches"`
	SentValues    int64   `json:"sentValues"`
	AckedBatches  int64   `json:"ackedBatches"`
	AckedValues   int64   `json:"ackedValues"`
	ValuesPerSec  float64 `json:"valuesPerSec"`
	Rejected      int64   `json:"rejectedBatches"`
	BreakerDrops  int64   `json:"breakerDroppedBatches"`
	Reconnects    int64   `json:"reconnects"`
	LatencySample int64   `json:"latencySamples"`
	AckP50Ms      float64 `json:"ackP50Ms"`
	AckP90Ms      float64 `json:"ackP90Ms"`
	AckP99Ms      float64 `json:"ackP99Ms"`
	AckMaxMs      float64 `json:"ackMaxMs"`
	LastError     string  `json:"lastError,omitempty"`
	TransportErr  string  `json:"transportError,omitempty"`
	// Apply is the daemon's /metricsz apply block at exit (-http-addr);
	// Apply.PendingBatches vs AckedBatches is the applied-vs-acked lag.
	Apply *applyz `json:"apply,omitempty"`
}

func report(est *quantile.KLL, stats *counters, elapsed time.Duration, apply *applyz) {
	sec := elapsed.Seconds()
	out := os.Stdout
	if *reportJSON {
		// stdout carries exactly one JSON object; the prose moves aside.
		out = os.Stderr
	}
	fmt.Fprintf(out, "quantileload: %d conns against %s for %v (batch=%d", *conns, *addr, elapsed.Round(time.Millisecond), *batchSize)
	if *rate > 0 {
		fmt.Fprintf(out, ", target %.3g values/sec", *rate)
	}
	fmt.Fprintf(out, ")\n")
	fmt.Fprintf(out, "  sent    %d batches / %d values (%.0f values/sec)\n",
		stats.batches.Load(), stats.values.Load(), float64(stats.values.Load())/sec)
	fmt.Fprintf(out, "  acked   %d batches / %d values accepted, %d rejected\n",
		stats.acked.Load(), stats.valuesAcked.Load(), stats.rejected.Load())
	if n := stats.reconnects.Load(); n > 0 {
		fmt.Fprintf(out, "  reconnected %d times (unacked batches replayed, exactly once)\n", n)
	}
	if n := stats.breakerDrops.Load(); n > 0 {
		fmt.Fprintf(out, "  breaker dropped %d batches while open (degraded, counted, never sent)\n", n)
	}
	if msg, ok := stats.lastErr.Load().(string); ok {
		fmt.Fprintf(out, "  last delivery error: %s\n", msg)
	}
	if msg, ok := stats.transportErr.Load().(string); ok {
		fmt.Fprintf(out, "  transport error: %s\n", msg)
	}
	if apply != nil {
		fmt.Fprintf(out, "  applied lag at exit: %d batches pending (daemon applied %d of %d enqueued, %d workers, %.0f%% coalesced)\n",
			apply.PendingBatches, apply.AppliedBatches, apply.EnqueuedBatches, apply.Workers, apply.CoalescedRatio*100)
	}
	rep := jsonReport{
		Addr:         *addr,
		Conns:        *conns,
		BatchSize:    *batchSize,
		RateTarget:   *rate,
		ElapsedSec:   sec,
		SentBatches:  stats.batches.Load(),
		SentValues:   stats.values.Load(),
		AckedBatches: stats.acked.Load(),
		AckedValues:  stats.valuesAcked.Load(),
		ValuesPerSec: float64(stats.values.Load()) / sec,
		Rejected:     stats.rejected.Load(),
		BreakerDrops: stats.breakerDrops.Load(),
		Reconnects:   stats.reconnects.Load(),
		Apply:        apply,
	}
	if msg, ok := stats.lastErr.Load().(string); ok {
		rep.LastError = msg
	}
	if msg, ok := stats.transportErr.Load().(string); ok {
		rep.TransportErr = msg
	}
	if est.Count() == 0 {
		fmt.Fprintf(out, "  no acks measured\n")
	} else {
		qs, err := est.Quantiles([]float64{0.5, 0.9, 0.99})
		if err != nil {
			log.Fatal(err)
		}
		max, _ := est.Max()
		bound, _ := est.ErrorBound()
		fmt.Fprintf(out, "  ack latency p50=%s p90=%s p99=%s max=%s (%d samples, ±%.0f rank error",
			ms(qs[0]), ms(qs[1]), ms(qs[2]), ms(max), est.Count(), math.Ceil(bound))
		if stats.dropped.Load() > 0 {
			fmt.Fprintf(out, ", %d samples dropped", stats.dropped.Load())
		}
		fmt.Fprintf(out, ")\n")
		if *latMetric != "" {
			fmt.Fprintf(out, "  daemon serves the same distribution: /quantile?metric=%s&phi=0.5,0.99\n", *latMetric)
		}
		rep.LatencySample = est.Count()
		rep.AckP50Ms, rep.AckP90Ms, rep.AckP99Ms, rep.AckMaxMs = qs[0], qs[1], qs[2], max
	}
	if *reportJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	}
}

// ms renders a millisecond float as a duration string.
func ms(v float64) string {
	return time.Duration(v * float64(time.Millisecond)).Round(time.Microsecond).String()
}

// buildSource mirrors cmd/genstream's workload switch with an explicit
// seed, so every connection streams a distinct arrival order.
func buildSource(kind string, n, seed int64) (stream.Source, error) {
	if n < 1 {
		return nil, fmt.Errorf("bad -cycle %d", n)
	}
	switch kind {
	case "sorted":
		return stream.Sorted(n), nil
	case "reversed":
		return stream.Reversed(n), nil
	case "zigzag":
		return stream.Zigzag(n), nil
	case "organpipe":
		return stream.OrganPipe(n), nil
	case "shuffled":
		return stream.Shuffled(n, seed), nil
	case "blocked":
		return stream.Blocked(n, *blocks, seed), nil
	case "uniform":
		return stream.Uniform(n, seed), nil
	case "normal":
		return stream.Normal(n, seed, *mean, *param), nil
	case "lognormal":
		return stream.LogNormal(n, seed, *mean, *param), nil
	case "exponential":
		return stream.Exponential(n, seed, *param), nil
	case "zipf":
		return stream.Zipf(n, seed, *param, uint64(*domain)), nil
	case "discrete":
		return stream.Discrete(n, seed, int64(*domain)), nil
	case "mixture":
		return stream.Mixture(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
