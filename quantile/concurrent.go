package quantile

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mrl/internal/core"
	"mrl/internal/params"
)

// ConcurrentConfig describes the accuracy contract and parallelism of a
// Concurrent sketch.
type ConcurrentConfig struct {
	// Epsilon is the rank-error tolerance of the combined answer: every
	// quantile reported by the Concurrent sketch has rank within Epsilon*N
	// of exact. Required unless B and K are set explicitly.
	Epsilon float64

	// N is the (maximum) number of elements the stream will carry, across
	// all writers. Required unless B and K are set explicitly.
	N int64

	// Policy selects the collapsing policy used by every shard; the default
	// PolicyNew is the right choice outside comparative experiments.
	Policy Policy

	// Shards is the number of independently locked writer shards. It
	// defaults to runtime.GOMAXPROCS(0): one shard per core is enough to
	// make uncontended ingestion the common case.
	Shards int

	// B and K, when both positive, bypass the optimizer and size every
	// shard directly as B buffers of K elements (expert use; Epsilon and N
	// are then ignored).
	B, K int

	// Backend selects the summary implementation every shard runs:
	// BackendMRL (default), BackendKLL or BackendWeighted. Non-MRL shards
	// are provisioned via NewEstimator from (Epsilon, K, Seed); N and
	// Policy apply only to MRL.
	Backend Backend

	// Seed drives per-shard randomness for backends that use it (KLL's
	// compaction coins); shard i derives its own stream from Seed+i.
	Seed int64
}

// concurrentShard pairs one private summary with its own lock. MRL shards
// hold a deterministic *Sketch, so their ingest stays allocation-free. The
// padding keeps neighbouring shard headers on distinct cache lines so that
// writers hammering different shards do not false-share.
type concurrentShard struct {
	mu  sync.Mutex
	est Estimator
	_   [40]byte
}

// Concurrent is a thread-safe, sharded ingestion front end: values are
// routed to per-core shards, each shard owns a private Estimator behind its
// own mutex (a deterministic Sketch on the default MRL backend), and MRL
// queries snapshot all shards and answer through the paper's Section 4.9
// combined OUTPUT phase; other backends answer from the sealed estimator.
// All methods are safe for concurrent use by any number of goroutines.
//
// Accuracy accounting (Lemma 5 applied to the forest of shard trees hanging
// off one virtual root): combining P shard roots costs at most P-1 extra
// ranks on top of the sum of the per-shard certificates, so New provisions
// each shard for rank error (Epsilon*N - (Shards-1)) / Shards over its
// ~N/Shards split of the stream. The combined bound reported alongside every
// answer is computed a posteriori from the collapses that actually happened
// and therefore stays exact even if routing drifts from a perfect split
// (overfull shards degrade gracefully through fallback collapses).
type Concurrent struct {
	shards  []*concurrentShard
	next    atomic.Uint64 // round-robin routing cursor
	backend Backend
	perDesc string // provisioning summary for Describe
}

// concurrentMinChunk is the smallest AddBatch slice worth splitting further:
// below it the per-shard lock amortizes poorly and a single shard absorbs
// the whole batch.
const concurrentMinChunk = 256

// NewConcurrent provisions a sharded concurrent sketch for the given
// contract. The sampling coupling (Delta) is not supported: sampled sketches
// cannot be combined, which the concurrent read path relies on.
func NewConcurrent(cfg ConcurrentConfig) (*Concurrent, error) {
	pol, err := cfg.Policy.core()
	if err != nil {
		return nil, err
	}
	p := cfg.Shards
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return nil, fmt.Errorf("quantile: shard count %d must be positive", cfg.Shards)
	}

	backend, err := ParseBackend(string(cfg.Backend))
	if err != nil {
		return nil, err
	}
	// Non-MRL shards are provisioned directly by their backend: no
	// per-shard N split (KLL does not need one and weighted sizes itself
	// from ingested weight); queries absorb them into one estimator, whose
	// a-posteriori bound covers the union.
	shardCfg := func(i int) Config {
		return Config{Epsilon: cfg.Epsilon, K: cfg.K, Seed: cfg.Seed + int64(i)}
	}
	var perDesc string
	if backend == BackendMRL {
		mrl, desc, err := mrlShardConfig(cfg, pol, p)
		if err != nil {
			return nil, err
		}
		shardCfg, perDesc = func(int) Config { return mrl }, desc
	}
	shards := make([]*concurrentShard, p)
	for i := range shards {
		est, err := NewEstimator(backend, shardCfg(i))
		if err != nil {
			return nil, err
		}
		shards[i] = &concurrentShard{est: est}
	}
	if perDesc == "" {
		perDesc = shards[0].est.Describe()
	}
	return &Concurrent{shards: shards, backend: backend, perDesc: perDesc}, nil
}

// mrlShardConfig sizes every MRL shard of a P-shard sketch as an explicit
// B x K geometry: the configured one, or the optimizer's for the shard's
// share of the rank budget.
func mrlShardConfig(cfg ConcurrentConfig, pol core.Policy, p int) (Config, string, error) {
	if cfg.B != 0 || cfg.K != 0 {
		// New validates the explicit geometry.
		return Config{B: cfg.B, K: cfg.K, Policy: cfg.Policy}, fmt.Sprintf("policy=%v b=%d k=%d", pol, cfg.B, cfg.K), nil
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return Config{}, "", fmt.Errorf("quantile: Epsilon %v outside (0,1)", cfg.Epsilon)
	}
	if cfg.N < 1 {
		return Config{}, "", fmt.Errorf("quantile: N %d must be positive", cfg.N)
	}
	// Split the rank budget: P-1 ranks pay for the root combination, the
	// rest is divided evenly across the shards' ~N/P substreams.
	nShard := (cfg.N + int64(p) - 1) / int64(p)
	budget := cfg.Epsilon*float64(cfg.N) - float64(p-1)
	if budget <= 0 {
		return Config{}, "", fmt.Errorf(
			"quantile: Epsilon %v too tight for %d shards at N=%d (need Epsilon*N > Shards-1)",
			cfg.Epsilon, p, cfg.N)
	}
	epsShard := budget / (float64(p) * float64(nShard))
	plan, err := params.Optimize(pol, epsShard, nShard)
	if err != nil {
		return Config{}, "", err
	}
	desc := fmt.Sprintf("policy=%v eps=%.3g n=%d b=%d k=%d", pol, epsShard, nShard, plan.B, plan.K)
	return Config{B: plan.B, K: plan.K, Policy: cfg.Policy}, desc, nil
}

// acquire returns a locked shard, preferring an uncontended one: starting
// from a round-robin cursor it try-locks each shard in turn, and only blocks
// on the starting shard when every shard is busy. The round-robin start
// keeps the element split across shards balanced (within one batch), which
// is what the per-shard capacity provisioning of NewConcurrent assumes;
// skipping busy shards trades a little balance for zero waiting, and an
// overfull shard only costs bound (reported truthfully), never correctness.
func (c *Concurrent) acquire() *concurrentShard {
	n := len(c.shards)
	if n == 1 {
		sh := c.shards[0]
		sh.mu.Lock()
		return sh
	}
	start := int(c.next.Add(1)-1) % n
	for i := 0; i < n; i++ {
		j := start + i
		if j >= n {
			j -= n
		}
		if sh := c.shards[j]; sh.mu.TryLock() {
			return sh
		}
	}
	sh := c.shards[start]
	sh.mu.Lock()
	return sh
}

// Add consumes one stream element. NaN is rejected. Safe for concurrent use.
func (c *Concurrent) Add(v float64) error {
	sh := c.acquire()
	err := sh.est.Add(v)
	sh.mu.Unlock()
	return err
}

// AddBatch consumes a batch of elements, the preferred high-throughput entry
// point: large batches are split into per-shard chunks (amortizing one lock
// and one bulk buffer copy over hundreds of elements), small ones go to a
// single shard whole. Unlike Add and the sequential Sketch.AddSlice the
// batch is all-or-nothing: a NaN anywhere rejects the whole batch, reporting
// its index, and no element is consumed. Safe for concurrent use; elements
// of concurrent batches interleave freely, which quantile answers are
// insensitive to.
func (c *Concurrent) AddBatch(vs []float64) error {
	// An empty batch is a complete no-op: return before the NaN scan and
	// before any shard acquisition, so empty flushes from batching pipelines
	// never contend with real writers.
	n := len(vs)
	if n == 0 {
		return nil
	}
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("quantile: element %d: NaN has no rank and cannot be added", i)
		}
	}
	return c.forChunks(n, func(e Estimator, lo, hi int) error { return e.AddBatch(vs[lo:hi]) })
}

// forChunks splits n batch elements into per-shard chunks of at least
// concurrentMinChunk (one chunk per shard at most) and hands each [lo, hi)
// range to add together with a locked shard's summary, stopping at the
// first error.
func (c *Concurrent) forChunks(n int, add func(e Estimator, lo, hi int) error) error {
	chunks := (n + concurrentMinChunk - 1) / concurrentMinChunk
	if chunks > len(c.shards) {
		chunks = len(c.shards)
	}
	per, extra := n/chunks, n%chunks
	for i, lo := 0, 0; i < chunks; i++ {
		hi := lo + per
		if i < extra {
			hi++
		}
		sh := c.acquire()
		err := add(sh.est, lo, hi)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// QuantilesWithBound answers many quantiles over the union of all shards in
// one combined OUTPUT pass, returning the estimates parallel to phis and the
// combined worst-case rank error certified for them (divide by Count for the
// epsilon it certifies).
func (c *Concurrent) QuantilesWithBound(phis []float64) (values []float64, errorBound float64, err error) {
	if c.backend != BackendMRL {
		sealed, err := c.seal()
		if err != nil {
			return nil, 0, err
		}
		if sealed == nil {
			return nil, 0, ErrEmpty
		}
		values, err := sealed.Quantiles(phis)
		if err != nil {
			return nil, 0, err
		}
		bound, _ := sealed.ErrorBound()
		return values, bound, nil
	}
	// Clone every MRL shard in turn under its own lock, so the combine
	// runs while writers continue. The cut is per-shard atomic, not
	// global: elements added concurrently with the loop may or may not be
	// included, which is the usual (and only meaningful) read-during-write
	// contract for a streaming summary.
	clones := make([]*core.Sketch, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		clones[i] = sh.est.(*Sketch).det.Clone()
		sh.mu.Unlock()
	}
	values, err = core.Quantiles(clones, phis)
	if err != nil {
		return nil, 0, err
	}
	return values, core.ErrorBound(clones), nil
}

// Quantiles answers many quantiles in one combined pass; the result is
// parallel to phis.
func (c *Concurrent) Quantiles(phis []float64) ([]float64, error) {
	values, _, err := c.QuantilesWithBound(phis)
	return values, err
}

// Quantile returns an approximation of the phi-quantile of everything
// consumed so far, phi in [0, 1].
func (c *Concurrent) Quantile(phi float64) (float64, error) {
	vs, err := c.Quantiles([]float64{phi})
	if err != nil {
		return math.NaN(), err
	}
	return vs[0], nil
}

// Median returns the 0.5-quantile.
func (c *Concurrent) Median() (float64, error) { return c.Quantile(0.5) }

// ErrorBound returns the current combined worst-case rank error of any
// reported quantile, certified by the pooled Lemma 5 accounting of all
// shards for the collapses that have actually happened. On MRL it reads
// the shards in place, holding every shard's lock for the O(b) read, and
// copies no buffer.
func (c *Concurrent) ErrorBound() float64 {
	if c.backend != BackendMRL {
		sealed, err := c.seal()
		if err != nil || sealed == nil {
			return 0
		}
		bound, _ := sealed.ErrorBound()
		return bound
	}
	dets := make([]*core.Sketch, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		dets[i] = sh.est.(*Sketch).det
	}
	bound := core.ErrorBound(dets)
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
	return bound
}

// Count returns the number of stream elements consumed across all shards.
func (c *Concurrent) Count() int64 {
	var total int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += sh.est.Count()
		sh.mu.Unlock()
	}
	return total
}

// Min returns the exact minimum consumed so far.
func (c *Concurrent) Min() (float64, error) { return c.extreme(Estimator.Min, math.Min) }

// Max returns the exact maximum consumed so far.
func (c *Concurrent) Max() (float64, error) { return c.extreme(Estimator.Max, math.Max) }

func (c *Concurrent) extreme(get func(Estimator) (float64, error), pick func(float64, float64) float64) (float64, error) {
	best := math.NaN()
	seen := false
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.est.Count() > 0 {
			v, err := get(sh.est)
			if err != nil {
				sh.mu.Unlock()
				return math.NaN(), err
			}
			if !seen {
				best, seen = v, true
			} else {
				best = pick(best, v)
			}
		}
		sh.mu.Unlock()
	}
	if !seen {
		return math.NaN(), ErrEmpty
	}
	return best, nil
}

// Shards returns the number of writer shards.
func (c *Concurrent) Shards() int { return len(c.shards) }

// MemoryElements returns the total buffer footprint across shards, in
// elements.
func (c *Concurrent) MemoryElements() int {
	return c.EstimatorStats().MemoryElements
}

// ShardCounts returns the number of elements each shard currently holds, in
// shard order — the occupancy view a monitoring surface exposes to judge how
// balanced routing is. Each count is read under its shard's lock; the slice
// as a whole is not one atomic cut across shards.
func (c *Concurrent) ShardCounts() []int64 {
	counts := make([]int64, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		counts[i] = sh.est.Count()
		sh.mu.Unlock()
	}
	return counts
}

// IngestStats is the pooled collapse accounting across all shards, the
// counters an observability endpoint exposes alongside quantile answers
// (the paper's Figure 5 symbols, summed over the shard forest).
type IngestStats struct {
	// Leaves is L: completely filled weight-1 buffers produced by NEW.
	Leaves int64
	// Collapses is C: COLLAPSE operations performed.
	Collapses int64
	// WeightSum is W: the sum of the output weights of all collapses.
	WeightSum int64
	// MaxCollapseWeight is the largest output weight of any collapse.
	MaxCollapseWeight int64
	// Absorbs counts sketch merges folded in via the absorb path.
	Absorbs int64
	// Fallbacks counts collapses outside the nominal schedule, i.e. a shard
	// was driven past the capacity its geometry was sized for.
	Fallbacks int64
}

// Stats returns the pooled collapse accounting across all shards. It is
// MRL-specific (the counters are the paper's symbols); for other backends
// every field is zero — use EstimatorStats instead.
func (c *Concurrent) Stats() IngestStats {
	var out IngestStats
	if c.backend != BackendMRL {
		return out
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := sh.est.(*Sketch).Stats()
		sh.mu.Unlock()
		out.Leaves += st.Leaves
		out.Collapses += st.Collapses
		out.WeightSum += st.WeightSum
		if st.MaxCollapseWeight > out.MaxCollapseWeight {
			out.MaxCollapseWeight = st.MaxCollapseWeight
		}
		out.Absorbs += st.Absorbs
		out.Fallbacks += st.Fallbacks
	}
	return out
}

// Reset discards all consumed data on every shard, keeping the provisioning.
// Concurrent writers observe either the old or the fresh state per shard;
// quiesce writers first if an exact cut matters.
func (c *Concurrent) Reset() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		_ = sh.est.Reset() // only sampled sketches fail Reset, and no shard samples
		sh.mu.Unlock()
	}
}

// Describe returns a one-line summary of the sharded provisioning.
func (c *Concurrent) Describe() string {
	return fmt.Sprintf("concurrent{backend=%s shards=%d per-shard{%s} mem=%d}",
		c.backend, len(c.shards), c.perDesc, c.MemoryElements())
}
