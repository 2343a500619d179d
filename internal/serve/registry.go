// Package serve is the embeddable HTTP quantile-serving subsystem: a
// named-metric registry pairing one all-time summary (a quantile.Estimator
// sized for the registry's contract) with a tumbling-window ring
// (window.Ring) per metric, an HTTP API to ingest values and query
// quantiles with their live Lemma 5 error bounds, and a checkpoint/restore
// path built on the sketch binary wire format. Each metric's apply queue
// gives it one writer at a time, so one summary per metric, under the
// metric's lock, is all the concurrency it needs. cmd/quantiled wraps it
// as a standalone daemon; embedders mount Server.Handler() wherever they
// already serve HTTP.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mrl/internal/window"
	"mrl/quantile"
)

// Typed failures the HTTP layer maps onto status codes; embedders calling
// the Registry directly can errors.Is against them the same way.
var (
	// ErrInvalidMetricName rejects empty, oversized, or control-character
	// metric names at the registry boundary.
	ErrInvalidMetricName = errors.New("serve: invalid metric name")
	// ErrUnknownMetric is returned by queries against a metric that has
	// never been ingested or registered.
	ErrUnknownMetric = errors.New("serve: unknown metric")
	// ErrWindowingDisabled is returned by windowed queries and rotations
	// when the registry was configured with Windows == 0.
	ErrWindowingDisabled = errors.New("serve: windowed serving disabled (Config.Windows is 0)")
	// ErrNaN rejects batches containing NaN before either structure
	// consumes anything, keeping ingestion all-or-nothing.
	ErrNaN = errors.New("serve: NaN has no rank and cannot be ingested")
	// ErrInvalidBackend rejects backend names the quantile package does not
	// implement, in Config.Backend and in per-request backend selection.
	ErrInvalidBackend = errors.New("serve: invalid backend")
	// ErrBackendMismatch is returned when a request names a backend for a
	// metric that already exists with a different one; a metric's backend is
	// fixed at creation.
	ErrBackendMismatch = errors.New("serve: metric already exists with a different backend")
	// ErrWeightsUnsupported rejects weighted ingest against metrics whose
	// backend cannot carry per-value weights (only "weighted" can).
	ErrWeightsUnsupported = errors.New(`serve: per-value weights need the "weighted" backend`)
	// ErrWeightMismatch rejects weighted batches whose weights slice does
	// not pair up with the values, or carries non-positive/non-finite
	// weights.
	ErrWeightMismatch = errors.New("serve: invalid weights")
)

// weightedWALPrefix marks write-ahead-log records carrying weighted batches:
// the record's metric name is the prefix plus the real name and its values
// interleave [v0, w0, v1, w1, ...]. The prefix starts with a control
// character, which validateMetricName rejects in real names, so it can never
// collide with a plain record.
const weightedWALPrefix = "\x01w:"

// backendWALPrefix marks records whose metric runs a backend other than the
// registry default: "\x01b:<backend>:<name>" with plain values. Without the
// tag a replay into a fresh registry would recreate the metric under the
// default backend and silently change its summary type.
const backendWALPrefix = "\x01b:"

// Config provisions every metric the registry creates; one registry serves
// many metrics under a single shared accuracy contract.
type Config struct {
	// Epsilon is the all-time rank-error tolerance per metric: every served
	// quantile has rank within Epsilon*N of exact while ingestion stays
	// within the provisioned capacity (beyond it the served bound keeps
	// reporting the truth, it just loosens).
	Epsilon float64

	// N is the per-metric all-time stream capacity the guarantee is sized
	// for.
	N int64

	// Windows is the tumbling-window ring length per metric ("last W
	// windows"); 0 disables windowed serving entirely.
	Windows int

	// PerWindow is the per-window capacity; required when Windows > 0.
	PerWindow int64

	// WindowEpsilon is the per-window rank-error tolerance; 0 means
	// Epsilon.
	WindowEpsilon float64

	// Backend selects the quantile summary new metrics run: "mrl" (the
	// default), "kll" (no a-priori N needed) or "weighted" (per-value
	// weights). Individual metrics can override it at registration or first
	// ingest; a metric's backend is fixed once created.
	Backend string

	// ApplyWorkers sizes the async apply worker pool draining the ingest
	// queues: 0 (the default) means one per GOMAXPROCS, -1 disables
	// the pool entirely so queued batches apply only at drain barriers
	// (queries, rotations, checkpoints).
	ApplyWorkers int

	// ApplyQueueDepth bounds one metric's apply backlog, in batches; 0 means
	// 256. A full queue exerts backpressure on the ingest path per
	// ApplyShed.
	ApplyQueueDepth int

	// ApplyShed selects the backpressure policy when a metric's apply queue
	// is full: false (the default) blocks the ingest until a drainer frees
	// space, true sheds the batch with ErrApplyBacklog (HTTP 429) before it
	// is made durable, so a shed batch is always safe to retry.
	ApplyShed bool
}

func (c Config) withDefaults() Config {
	if c.WindowEpsilon == 0 {
		c.WindowEpsilon = c.Epsilon
	}
	return c
}

// metric is one named stream: an all-time summary, an optional windowed
// ring, and ingest accounting.
type metric struct {
	name    string
	backend quantile.Backend

	ingested atomic.Int64 // values accepted through Ingest
	batches  atomic.Int64 // Ingest calls that touched this metric
	replayed atomic.Int64 // values re-applied from the WAL at recovery

	// mu guards the all-time summary and the window ring together (neither
	// is concurrency-safe): a batch lands in both under one hold, so every
	// reader sees whole batches.
	mu   sync.Mutex
	all  quantile.Estimator
	ring *window.Ring
	// restoredCount is the element count checkpoints restored into all.
	restoredCount int64

	// gen counts mutations (ingest, replay, rotation, restore), each bumped
	// while holding mu. Query-cache entries are stamped with the generation
	// they were computed under and served only while it still matches, so a
	// cached answer can never outlive the data it summarised.
	gen     atomic.Uint64
	cacheMu sync.Mutex
	cache   map[queryCacheKey]queryCacheEntry

	// q is the metric's async apply backlog (every ingest carrier and
	// recovery enqueue here; see applyqueue.go).
	q applyQueue
}

// queryCacheKey identifies one repeated read: the raw phi parameter exactly
// as the client sent it (no parse/canonicalise cost on a hit) plus the
// windowed flag.
type queryCacheKey struct {
	phis     string
	windowed bool
}

type queryCacheEntry struct {
	gen uint64
	res QueryResult
}

// queryCacheMaxEntries bounds the per-metric cache; dashboards repeat a
// handful of phi lists, so the bound only matters against adversarial query
// diversity.
const queryCacheMaxEntries = 128

// metricSeed derives a stable per-metric seed for backends that flip coins
// (KLL compactions), so a restarted process provisions identical summaries.
func metricSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

func newMetric(name string, cfg Config, b quantile.Backend) (*metric, error) {
	all, err := quantile.NewEstimator(b, quantile.Config{Epsilon: cfg.Epsilon, N: cfg.N, Seed: metricSeed(name)})
	if err != nil {
		return nil, fmt.Errorf("serve: metric %q: %w", name, err)
	}
	m := &metric{name: name, backend: b, all: all, cache: make(map[queryCacheKey]queryCacheEntry)}
	if cfg.Windows > 0 {
		ring, err := window.NewRing(cfg.Windows, cfg.WindowEpsilon, cfg.PerWindow)
		if err != nil {
			return nil, fmt.Errorf("serve: metric %q: %w", name, err)
		}
		m.ring = ring
	}
	return m, nil
}

// Registry maps metric names to their serving state. All methods are safe
// for concurrent use.
type Registry struct {
	cfg Config
	// defaultBackend is Config.Backend parsed once; metrics created without
	// an explicit backend run it.
	defaultBackend quantile.Backend

	// metrics maps each name to its *metric. A sync.Map keeps the
	// per-batch lookup on the ingest hot path lock-free once a metric is
	// known and makes a creation cost O(1) amortised, whatever the metric
	// count; mu serialises creators so a metric is built once, and n counts
	// what they stored.
	mu      sync.Mutex
	metrics sync.Map
	n       atomic.Int64

	// pool drains the per-metric apply queues; see applyqueue.go.
	pool *applyPool

	// sessions is the binary ingest exactly-once dedup table;
	// see session.go.
	sessions *sessionTable

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// NewRegistry validates the shared per-metric contract by provisioning (and
// discarding) one probe metric, so configuration errors surface at
// construction instead of on the first request.
func NewRegistry(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	b, err := quantile.ParseBackend(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidBackend, err)
	}
	if _, err := newMetric("probe", cfg, b); err != nil {
		return nil, err
	}
	workers := cfg.ApplyWorkers
	switch {
	case workers < 0:
		workers = 0
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.ApplyQueueDepth
	if depth <= 0 {
		depth = defaultApplyQueueDepth
	}
	r := &Registry{
		cfg:            cfg,
		defaultBackend: b,
		pool:           newApplyPool(workers, depth, cfg.ApplyShed),
		sessions:       newSessionTable(sessionTableMax),
	}
	return r, nil
}

// Close parks the apply worker pool. Queued batches stay queued and are
// still applied by any drain barrier (queries, checkpoints); Server.Shutdown
// closes the registry after its final checkpoint drained everything.
func (r *Registry) Close() { r.pool.close() }

func validateMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty", ErrInvalidMetricName)
	}
	if len(name) > 128 {
		return fmt.Errorf("%w: %d bytes exceeds 128", ErrInvalidMetricName, len(name))
	}
	for _, r := range name {
		if r <= ' ' || r == 0x7f {
			return fmt.Errorf("%w: %q contains whitespace or control characters", ErrInvalidMetricName, name)
		}
	}
	return nil
}

func (r *Registry) get(name string) *metric {
	v, _ := r.metrics.Load(name)
	m, _ := v.(*metric) // nil when absent
	return m
}

// each calls fn for every registered metric.
func (r *Registry) each(fn func(*metric)) {
	r.metrics.Range(func(_, m any) bool {
		fn(m.(*metric))
		return true
	})
}

func (r *Registry) getOrCreate(name string) (*metric, error) {
	if m := r.get(name); m != nil {
		return m, nil
	}
	m, err := r.getOrCreateBackend(name, r.defaultBackend)
	if errors.Is(err, ErrBackendMismatch) {
		// Raced with creation under an explicit backend; backend-agnostic
		// callers take the metric as it exists.
		if m := r.get(name); m != nil {
			return m, nil
		}
	}
	return m, err
}

// getOrCreateBackend returns the named metric, creating it with backend b
// when it does not exist yet. An existing metric with a different backend is
// an ErrBackendMismatch: the backend is part of the metric's identity.
func (r *Registry) getOrCreateBackend(name string, b quantile.Backend) (*metric, error) {
	if m := r.get(name); m != nil {
		if m.backend != b {
			return nil, fmt.Errorf("%w: %q runs %q, requested %q", ErrBackendMismatch, name, m.backend, b)
		}
		return m, nil
	}
	if err := validateMetricName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.get(name); m != nil {
		if m.backend != b {
			return nil, fmt.Errorf("%w: %q runs %q, requested %q", ErrBackendMismatch, name, m.backend, b)
		}
		return m, nil
	}
	m, err := newMetric(name, r.cfg, b)
	if err != nil {
		return nil, err
	}
	m.q.init(r.pool)
	r.metrics.Store(name, m)
	r.n.Add(1)
	return m, nil
}

// Ensure registers the metric if it does not exist yet, e.g. to pre-create
// well-known metrics at boot instead of on first ingest. It runs the
// registry's default backend.
func (r *Registry) Ensure(name string) error {
	_, err := r.getOrCreate(name)
	return err
}

// EnsureBackend registers the metric with an explicit backend, overriding
// the registry default. Re-ensuring with the backend the metric already runs
// is a no-op; naming a different one is ErrBackendMismatch, and an unknown
// backend name is ErrInvalidBackend.
func (r *Registry) EnsureBackend(name, backend string) error {
	b, err := quantile.ParseBackend(backend)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBackend, err)
	}
	_, err = r.getOrCreateBackend(name, b)
	return err
}

// Backend reports the backend the named metric runs, or the registry default
// for metrics that do not exist yet.
func (r *Registry) Backend(name string) quantile.Backend {
	if m := r.get(name); m != nil {
		return m.backend
	}
	return r.defaultBackend
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	return int(r.n.Load())
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, r.Len())
	r.each(func(m *metric) { names = append(names, m.name) })
	sort.Strings(names)
	return names
}

// Ingest routes one batch of values into the metric's all-time summary and
// its current tumbling window, synchronously. The metric is created on
// first use. Ingestion is all-or-nothing: a NaN anywhere rejects the whole
// batch before either structure consumes an element. Empty batches are
// accepted as no-ops.
func (r *Registry) Ingest(name string, vs []float64) error {
	m, err := r.getOrCreate(name)
	if err != nil {
		return err
	}
	if err := r.validateBatch(name, vs, nil); err != nil {
		return err
	}
	_, err = m.apply([]applyItem{{vs: vs}})
	return err
}

// IngestWeighted routes one batch of (value, weight) pairs into the metric's
// all-time summary, synchronously. The metric must run — or, if created
// here, the registry default must be — the "weighted" backend; anything else
// is ErrWeightsUnsupported. The tumbling window ring is bypassed: it
// summarises unweighted recency and has no way to carry weights.
// All-or-nothing like Ingest.
func (r *Registry) IngestWeighted(name string, vs, ws []float64) error {
	if ws == nil {
		ws = []float64{} // a weighted batch, whatever its length
	}
	if err := r.validateBatch(name, vs, ws); err != nil {
		return err
	}
	m, err := r.getOrCreateBackend(name, quantile.BackendWeighted)
	if err != nil {
		return err
	}
	_, err = m.apply([]applyItem{{vs: vs, ws: ws}})
	return err
}

// apply folds one FIFO run of batches, any mix of plain, weighted and
// replayed, into the metric under one hold of its lock, so a reader sees
// the run whole. It is the one apply path: the async drainers pass the
// backlog they drain, the synchronous Ingest and IngestWeighted a run of
// one. Plain batches land in the all-time summary and, unless replayed, in
// the window ring; weighted batches land in the all-time summary only;
// replayed values count as replayed rather than ingested. Values are
// validated by the caller. A failing batch does not stop the rest of the
// run: apply returns how many failed and the last failure.
//
// The query-cache generation moves inside the same hold. A query that reads
// the new generation therefore answers after the run, and one that read the
// old generation stamps its answer with it, so that answer is never served
// once the run has landed.
func (m *metric) apply(run []applyItem) (failed int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, it := range run {
		if !it.replay {
			m.batches.Add(1)
		}
		if len(it.vs) == 0 {
			continue
		}
		changed = true
		var e error
		if it.ws != nil {
			if w, ok := m.all.(*quantile.Weighted); ok {
				e = w.AddWeightedBatch(it.vs, it.ws)
			} else {
				e = fmt.Errorf("%w: metric %q runs %q", ErrWeightsUnsupported, m.name, m.backend)
			}
		} else if e = m.all.AddBatch(it.vs); e == nil && m.ring != nil && !it.replay {
			e = m.ring.AddBatch(it.vs)
		}
		if e != nil {
			failed, err = failed+1, e
			continue
		}
		if it.replay {
			m.replayed.Add(int64(len(it.vs)))
		} else {
			m.ingested.Add(int64(len(it.vs)))
		}
	}
	if changed {
		m.gen.Add(1)
	}
	return failed, err
}

// validateBatch is the one ingest validator, run by every write path before
// a batch is logged or applied, so a batch that can never be applied never
// becomes durable either. A new metric needs an acceptable name; a weighted
// batch (ws non-nil) needs a metric on the "weighted" backend — for a new
// metric, the registry default; values must be NaN-free and weights paired
// with them, positive and finite.
func (r *Registry) validateBatch(name string, vs, ws []float64) error {
	if m := r.get(name); m != nil {
		if ws != nil && m.backend != quantile.BackendWeighted {
			return fmt.Errorf("%w: metric %q runs %q", ErrWeightsUnsupported, name, m.backend)
		}
	} else {
		if err := validateMetricName(name); err != nil {
			return err
		}
		if ws != nil && r.defaultBackend != quantile.BackendWeighted {
			// Creation here would pick a backend that cannot take weights;
			// register the metric with the weighted backend first.
			return fmt.Errorf("%w: metric %q", ErrWeightsUnsupported, name)
		}
	}
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("%w (element %d)", ErrNaN, i)
		}
	}
	if ws == nil {
		return nil
	}
	if len(ws) != len(vs) {
		return fmt.Errorf("%w: %d values but %d weights", ErrWeightMismatch, len(vs), len(ws))
	}
	for i, w := range ws {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weight %v at element %d must be positive and finite", ErrWeightMismatch, w, i)
		}
	}
	return nil
}

// walRecord renders a batch into the metric's WAL record: a weighted batch
// interleaves [v0, w0, v1, w1, ...] under the reserved weighted prefix; a
// plain batch keeps the bare name when the metric runs the registry default
// backend, else a backend-tagged name so replay recreates the metric under
// the same summary type.
func (r *Registry) walRecord(m *metric, vs, ws []float64) (string, []float64) {
	if ws != nil {
		out := make([]float64, 0, 2*len(vs))
		for i, v := range vs {
			out = append(out, v, ws[i])
		}
		return weightedWALPrefix + m.name, out
	}
	if m.backend == r.defaultBackend {
		return m.name, vs
	}
	return backendWALPrefix + string(m.backend) + ":" + m.name, vs
}

// EnqueueReplay folds one recovered WAL record into its metric through the
// async apply pipeline: the reserved weighted prefix de-interleaves
// [v, w, ...] pairs, and the backend tag recreates the metric under the
// summary type it was acknowledged with. The record is resolved and
// validated synchronously (keeping recovery's error fidelity and the
// single-threaded session dedup ordering) but applied by the worker pool,
// so replay decode overlaps sketch work across metrics. Replayed values
// bypass the tumbling window — windows describe "recent" data, which a
// restart makes stale by definition — and count as replayed rather than
// ingested. Replay must not drop records, so a full queue always blocks
// regardless of the shed policy. Callers run drainAll before serving.
func (r *Registry) EnqueueReplay(name string, vs []float64) error {
	var ws []float64
	var m *metric
	var err error
	if rest, ok := strings.CutPrefix(name, weightedWALPrefix); ok {
		if len(vs)%2 != 0 {
			return fmt.Errorf("%w: odd interleaved length %d replaying %q", ErrWeightMismatch, len(vs), rest)
		}
		n := len(vs) / 2
		values := make([]float64, n)
		ws = make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = vs[2*i]
			ws[i] = vs[2*i+1]
		}
		name, vs = rest, values
		m, err = r.getOrCreateBackend(name, quantile.BackendWeighted)
	} else if rest, ok := strings.CutPrefix(name, backendWALPrefix); ok {
		tag, metricName, found := strings.Cut(rest, ":")
		if !found {
			return fmt.Errorf("%w: malformed backend-tagged WAL record %q", ErrInvalidBackend, name)
		}
		b, perr := quantile.ParseBackend(tag)
		if perr != nil {
			return fmt.Errorf("%w: %v", ErrInvalidBackend, perr)
		}
		name = metricName
		m, err = r.getOrCreateBackend(name, b)
	} else {
		m, err = r.getOrCreate(name)
	}
	if err != nil {
		return err
	}
	if err := r.validateBatch(name, vs, ws); err != nil {
		return err
	}
	if len(vs) == 0 {
		return nil
	}
	if err := m.q.reserve(true); err != nil {
		return err
	}
	m.q.enqueue(m, applyItem{vs: vs, ws: ws, replay: true})
	return nil
}

// drainAll blocks until every queued batch in every metric is applied — the
// barrier checkpoints and recovery run.
func (r *Registry) drainAll() {
	r.each(func(m *metric) { m.q.drain(m) })
}

// Rotate tumbles the named metric's window ring: the current window is
// closed and a fresh one starts, evicting the oldest once the ring is full.
func (r *Registry) Rotate(name string) error {
	m := r.get(name)
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	if m.ring == nil {
		return ErrWindowingDisabled
	}
	return m.rotate()
}

// RotateAll tumbles every windowed metric's ring, returning the names it
// rotated (sorted). Metrics without windowing are skipped.
func (r *Registry) RotateAll() ([]string, error) {
	var rotated []string
	for _, name := range r.Names() {
		m := r.get(name)
		if m == nil || m.ring == nil {
			continue
		}
		if err := m.rotate(); err != nil {
			return rotated, fmt.Errorf("serve: rotating %q: %w", name, err)
		}
		rotated = append(rotated, name)
	}
	return rotated, nil
}

// rotate tumbles the metric's window ring, moving the query-cache
// generation under the same hold of the metric's lock (see apply).
// Rotation is a drain barrier: batches acked before the rotation belong to
// the closing window, not the fresh one.
func (m *metric) rotate() error {
	m.q.drain(m)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen.Add(1)
	return m.ring.Rotate()
}

// QueryResult is one answered quantile query together with its runtime
// certificate.
type QueryResult struct {
	// Values holds the quantile estimates, parallel to the requested phis.
	Values []float64
	// Count is the number of elements the answers cover.
	Count int64
	// ErrorBound is the worst-case rank error of every value, certified a
	// posteriori for the summary reductions that actually happened
	// (all-time: the metric's summary; windowed: the live windows combined).
	ErrorBound float64
	// Epsilon is ErrorBound normalised by Count — the epsilon this answer
	// actually certifies at query time.
	Epsilon float64
}

// Quantiles answers phis for the named metric: all-time (everything
// ingested, restored or replayed) or, with windowed set, over the union of
// the live tumbling windows.
func (r *Registry) Quantiles(name string, phis []float64, windowed bool) (QueryResult, error) {
	m := r.get(name)
	if m == nil {
		return QueryResult{}, fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	// Read-your-acks: apply everything acked before the query arrived.
	m.q.drain(m)
	if windowed {
		return m.queryWindow(phis)
	}
	return m.queryAllTime(phis)
}

// QuantilesCached is Quantiles behind a generation-stamped per-metric cache:
// rawKey is the client's phi parameter verbatim (a hit costs one map lookup,
// no parsing), and any mutation of the metric — ingest, WAL replay, window
// rotation, checkpoint restore — bumps the generation and so invalidates
// every entry at once. Every mutation bumps it while holding the metric's
// lock, so an answer computed under the lock reflects every mutation up to
// the generation read before it: an entry raced with a concurrent write is
// stamped with the pre-write generation and can only miss, never serve
// stale data.
func (r *Registry) QuantilesCached(name, rawKey string, phis []float64, windowed bool) (QueryResult, error) {
	m := r.get(name)
	if m == nil {
		return QueryResult{}, fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	// Read-your-acks before the generation stamp is read, so a cached entry
	// can never hide batches acked before the query.
	m.q.drain(m)
	key := queryCacheKey{phis: rawKey, windowed: windowed}
	gen := m.gen.Load()
	m.cacheMu.Lock()
	if e, ok := m.cache[key]; ok && e.gen == gen {
		m.cacheMu.Unlock()
		r.cacheHits.Add(1)
		return e.res, nil
	}
	m.cacheMu.Unlock()
	r.cacheMisses.Add(1)

	var res QueryResult
	var err error
	if windowed {
		res, err = m.queryWindow(phis)
	} else {
		res, err = m.queryAllTime(phis)
	}
	if err != nil {
		return QueryResult{}, err
	}
	m.cacheMu.Lock()
	if len(m.cache) >= queryCacheMaxEntries {
		// Evict stale generations first; if the cache is full of current
		// entries the query mix is adversarial and dropping everything is
		// cheaper than tracking recency.
		for k, e := range m.cache {
			if e.gen != gen {
				delete(m.cache, k)
			}
		}
		if len(m.cache) >= queryCacheMaxEntries {
			clear(m.cache)
		}
	}
	m.cache[key] = queryCacheEntry{gen: gen, res: res}
	m.cacheMu.Unlock()
	return res, nil
}

// CacheStatus reports the query-cache hit/miss counters and the number of
// live entries across all metrics.
func (r *Registry) CacheStatus() (hits, misses uint64, entries int) {
	r.each(func(m *metric) {
		m.cacheMu.Lock()
		entries += len(m.cache)
		m.cacheMu.Unlock()
	})
	return r.cacheHits.Load(), r.cacheMisses.Load(), entries
}

func (m *metric) queryAllTime(phis []float64) (QueryResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	values, err := m.all.Quantiles(phis)
	if err != nil {
		return QueryResult{}, err
	}
	bound, _ := m.all.ErrorBound() // served metrics are never sampled
	return newQueryResult(values, bound, m.all.Count()), nil
}

func (m *metric) queryWindow(phis []float64) (QueryResult, error) {
	if m.ring == nil {
		return QueryResult{}, ErrWindowingDisabled
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	values, bound, err := m.ring.Quantiles(phis)
	if err != nil {
		return QueryResult{}, err
	}
	return newQueryResult(values, bound, m.ring.Count()), nil
}

func newQueryResult(values []float64, bound float64, count int64) QueryResult {
	res := QueryResult{Values: values, Count: count, ErrorBound: bound}
	if count > 0 {
		res.Epsilon = bound / float64(count)
	}
	return res
}

// WindowStatus is the observability view of one metric's tumbling-window
// ring.
type WindowStatus struct {
	// Live is the number of windows currently holding a slot in the ring
	// (including the filling one).
	Live int `json:"live"`
	// Count is the total elements across the live windows.
	Count int64 `json:"count"`
	// MemoryElements is the buffer footprint across the ring, in elements.
	MemoryElements int64 `json:"memoryElements"`
	// HeldElements is the part of MemoryElements allocated so far.
	HeldElements int64 `json:"heldElements"`
	// ErrorBound is the combined rank error the live windows certify now.
	ErrorBound float64 `json:"errorBound"`
	// Rotations counts completed window rotations.
	Rotations int64 `json:"rotations"`
}

// MetricStatus is the observability view of one metric, as served by
// GET /metricsz.
type MetricStatus struct {
	Name string `json:"name"`
	// Backend is the quantile summary implementation the metric runs.
	Backend string `json:"backend"`
	// Count is the all-time element count, restored checkpoints included.
	Count int64 `json:"count"`
	// RestoredCount is the element count restored from checkpoints into the
	// metric's summary in this process's lifetime.
	RestoredCount int64 `json:"restoredCount"`
	// IngestedValues and IngestBatches count what arrived through Ingest
	// in this process's lifetime (restored data excluded).
	IngestedValues int64 `json:"ingestedValues"`
	IngestBatches  int64 `json:"ingestBatches"`
	// ReplayedValues counts values re-applied from the write-ahead log at
	// recovery — acked by a previous process, re-ingested by this one.
	ReplayedValues int64 `json:"replayedValues"`
	// MemoryElements is the total buffer footprint (all-time summary +
	// windows), in elements: b*k per MRL sketch, as provisioned.
	MemoryElements int64 `json:"memoryElements"`
	// HeldElements is the part of MemoryElements allocated so far. An MRL
	// buffer gets its array when data first fills it; for KLL and weighted
	// summaries it equals their MemoryElements.
	HeldElements int64 `json:"heldElements"`
	// Collapses, WeightSum and Fallbacks are the all-time summary's
	// collapse counters (Figure 5 symbols; fallbacks > 0 means the metric
	// was driven past its provisioned capacity). MRL-only; zero elsewhere.
	Collapses int64 `json:"collapses"`
	WeightSum int64 `json:"weightSum"`
	Fallbacks int64 `json:"fallbacks"`
	// Compactions is the backend-neutral summary-reduction counter: MRL
	// collapses, KLL compactor compactions, weighted COMPRESS passes.
	Compactions int64 `json:"compactions"`
	// ErrorBound is the all-time rank error certified right now.
	ErrorBound float64 `json:"errorBound"`
	// PendingApplyBatches is the applied-vs-acked lag: batches acked (and
	// made durable) but still waiting in the metric's apply queue. Any query
	// against the metric drains it to zero first.
	PendingApplyBatches uint64 `json:"pendingApplyBatches,omitempty"`
	// Window is nil when windowed serving is disabled.
	Window *WindowStatus `json:"window,omitempty"`
}

// Status reports every metric's observability view, sorted by name.
func (r *Registry) Status() []MetricStatus {
	names := r.Names()
	out := make([]MetricStatus, 0, len(names))
	for _, name := range names {
		if m := r.get(name); m != nil {
			out = append(out, m.status())
		}
	}
	return out
}

func (m *metric) status() MetricStatus {
	out := MetricStatus{
		Name:                m.name,
		Backend:             string(m.backend),
		IngestedValues:      m.ingested.Load(),
		IngestBatches:       m.batches.Load(),
		ReplayedValues:      m.replayed.Load(),
		PendingApplyBatches: m.q.pending(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.all.EstimatorStats()
	out.Count = st.Count
	out.RestoredCount = m.restoredCount
	out.MemoryElements = int64(st.MemoryElements)
	out.HeldElements = int64(st.HeldElements)
	out.Compactions = st.Compactions
	out.ErrorBound, _ = m.all.ErrorBound()
	if sk, ok := m.all.(*quantile.Sketch); ok {
		cs := sk.Stats()
		out.Collapses, out.WeightSum, out.Fallbacks = cs.Collapses, cs.WeightSum, cs.Fallbacks
	}
	if m.ring != nil {
		out.Window = &WindowStatus{
			Live:           m.ring.Windows(),
			Count:          m.ring.Count(),
			MemoryElements: m.ring.MemoryElements(),
			HeldElements:   m.ring.HeldElements(),
			ErrorBound:     m.ring.Bound(),
			Rotations:      m.ring.Rotations(),
		}
		out.MemoryElements += out.Window.MemoryElements
		out.HeldElements += out.Window.HeldElements
	}
	return out
}

// ApplyStatus is the observability view of the async apply pipeline, served
// in /metricsz's "apply" block.
type ApplyStatus struct {
	// Workers is the configured pool size; 0 means the pool is disabled and
	// only drain barriers apply batches.
	Workers int `json:"workers"`
	// QueueDepth is the per-metric backlog bound, in batches.
	QueueDepth int `json:"queueDepth"`
	// Policy is the full-queue backpressure policy: "block" or "shed".
	Policy string `json:"policy"`
	// PendingBatches is the applied-vs-acked lag summed over all metrics.
	PendingBatches uint64 `json:"pendingBatches"`
	// EnqueuedBatches and AppliedBatches count batches through the pipeline;
	// CoalescedBatches is the subset applied in a run of more than one, under
	// one hold of the metric's lock (CoalescedRatio = coalesced/applied).
	EnqueuedBatches  int64   `json:"enqueuedBatches"`
	AppliedBatches   int64   `json:"appliedBatches"`
	CoalescedBatches int64   `json:"coalescedBatches"`
	CoalescedRatio   float64 `json:"coalescedRatio"`
	// ShedBatches counts batches rejected with ErrApplyBacklog; blocked
	// enqueues counts reservations that had to wait for space.
	ShedBatches     int64 `json:"shedBatches"`
	BlockedEnqueues int64 `json:"blockedEnqueues"`
	// RunningWorkers is the number of pool workers applying right now;
	// WorkerRuns counts completed drain sessions and BusySeconds the
	// cumulative time workers spent applying (utilisation =
	// BusySeconds / (Workers * uptime)).
	RunningWorkers int64   `json:"runningWorkers"`
	WorkerRuns     int64   `json:"workerRuns"`
	BusySeconds    float64 `json:"busySeconds"`
	// ApplyErrors counts post-ack apply failures (a bug by construction:
	// batches are fully validated before they are logged); LastError is the
	// most recent one.
	ApplyErrors int64  `json:"applyErrors"`
	LastError   string `json:"lastError,omitempty"`
}

// ApplyStatus reports the async apply pipeline's counters. It does not drain
// queues, so PendingBatches is the live lag.
func (r *Registry) ApplyStatus() ApplyStatus {
	p := r.pool
	var pending uint64
	r.each(func(m *metric) { pending += m.q.pending() })
	applied := p.appliedBatches.Load()
	coalesced := p.coalescedBatches.Load()
	st := ApplyStatus{
		Workers:          p.workers,
		QueueDepth:       p.depth,
		Policy:           "block",
		PendingBatches:   pending,
		EnqueuedBatches:  p.enqueuedBatches.Load(),
		AppliedBatches:   applied,
		CoalescedBatches: coalesced,
		ShedBatches:      p.shedBatches.Load(),
		BlockedEnqueues:  p.blockedEnqueues.Load(),
		RunningWorkers:   p.running.Load(),
		WorkerRuns:       p.runs.Load(),
		BusySeconds:      float64(p.busyNanos.Load()) / 1e9,
		ApplyErrors:      p.applyErrors.Load(),
	}
	if p.shed {
		st.Policy = "shed"
	}
	if applied > 0 {
		st.CoalescedRatio = float64(coalesced) / float64(applied)
	}
	if e, ok := p.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}
