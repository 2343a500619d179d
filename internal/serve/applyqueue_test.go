package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrl/internal/faultfs"
	"mrl/quantile"
)

// applyTestConfig is the shared base: barrier-only draining (no workers) so
// tests control exactly when queued batches apply.
func applyTestConfig() Config {
	return Config{Epsilon: 0.01, N: 1_000_000, Windows: 3, PerWindow: 4096, ApplyWorkers: -1}
}

// enqueueDirect pushes one plain batch through the metric's apply queue the
// way the binary ingest path does (reserve, then enqueue), with its own copy
// of the values.
func enqueueDirect(t *testing.T, m *metric, vs []float64) {
	t.Helper()
	if err := m.q.reserve(false); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	m.q.enqueue(m, applyItem{vs: append([]float64(nil), vs...)})
}

// TestDrainReleasesBatchReferences: a drained queue keeps the capacity of
// its backlog but no reference into the batches it applied, so their
// released frame buffers and copied values can be collected.
func TestDrainReleasesBatchReferences(t *testing.T) {
	reg, err := NewRegistry(applyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		buf := getFrameBuf(64)
		if err := m.q.reserve(false); err != nil {
			t.Fatal(err)
		}
		m.q.enqueue(m, applyItem{vs: []float64{float64(i), float64(i + 1)}, buf: buf})
	}
	reg.drainAll()
	m.q.mu.Lock()
	defer m.q.mu.Unlock()
	if cap(m.q.items) == 0 {
		t.Fatal("drain dropped the warm capacity of the backlog")
	}
	for i, it := range m.q.items[:cap(m.q.items)] {
		if it.vs != nil || it.ws != nil || it.buf != nil {
			t.Fatalf("backlog slot %d still references an applied batch", i)
		}
	}
}

// TestAsyncApplyBitIdenticalToSync proves the apply queue's order invariant
// at the registry level: a backlog of batches applied through the queue — as
// one run under one lock hold AND as per-batch drains — produces a registry
// byte-identical (checkpoint encoding, windowed answers, counters) to
// synchronous Ingest of the same batches in the same order.
func TestAsyncApplyBitIdenticalToSync(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	batches := make([][]float64, 32)
	for i := range batches {
		b := make([]float64, 1+rng.Intn(200))
		for j := range b {
			b[j] = rng.NormFloat64() * 100
		}
		batches[i] = b
	}

	newReg := func() *Registry {
		reg, err := NewRegistry(applyTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	syncReg, coalesced, single := newReg(), newReg(), newReg()
	defer syncReg.Close()
	defer coalesced.Close()
	defer single.Close()

	for _, b := range batches {
		if err := syncReg.Ingest("m", b); err != nil {
			t.Fatal(err)
		}
	}
	// Whole backlog queued, then one drain: every batch applies in one run.
	mc, err := coalesced.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		enqueueDirect(t, mc, b)
	}
	coalesced.drainAll()
	// Drain after every enqueue: each batch applies alone.
	ms, err := single.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		enqueueDirect(t, ms, b)
		single.drainAll()
	}

	want, err := syncReg.encodeCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	for label, reg := range map[string]*Registry{"coalesced": coalesced, "per-batch": single} {
		got, err := reg.encodeCheckpoint(0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: checkpoint bytes differ from synchronous ingest (async apply reordered or lost a batch)", label)
		}
		phis := []float64{0.1, 0.5, 0.9}
		for _, windowed := range []bool{false, true} {
			wantQ, err := syncReg.Quantiles("m", phis, windowed)
			if err != nil {
				t.Fatal(err)
			}
			gotQ, err := reg.Quantiles("m", phis, windowed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(wantQ, gotQ) {
				t.Errorf("%s windowed=%v: query %+v, sync ingest served %+v", label, windowed, gotQ, wantQ)
			}
		}
		wantSt, gotSt := syncReg.Status()[0], reg.Status()[0]
		if wantSt.IngestedValues != gotSt.IngestedValues || wantSt.IngestBatches != gotSt.IngestBatches {
			t.Errorf("%s: counted %d values / %d batches, sync %d / %d",
				label, gotSt.IngestedValues, gotSt.IngestBatches, wantSt.IngestedValues, wantSt.IngestBatches)
		}
	}
	st := coalesced.ApplyStatus()
	if st.CoalescedBatches != int64(len(batches)) {
		t.Errorf("coalesced run applied %d batches as coalesced, want %d", st.CoalescedBatches, len(batches))
	}
	if single.ApplyStatus().CoalescedBatches != 0 {
		t.Errorf("per-batch drains coalesced %d batches, want 0", single.ApplyStatus().CoalescedBatches)
	}
}

// TestApplyRunKeepsGoingPastAFailingBatch: a batch that fails inside a
// drained run is counted as an apply error and skipped, and the batches
// after it in the same run still land. Here the failing batch is a
// weighted one queued for a metric that does not run the weighted backend.
func TestApplyRunKeepsGoingPastAFailingBatch(t *testing.T) {
	reg, err := NewRegistry(applyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []applyItem{
		{vs: []float64{1, 2}},
		{vs: []float64{3}, ws: []float64{1}},
		{vs: []float64{4, 5}},
	} {
		if err := m.q.reserve(false); err != nil {
			t.Fatal(err)
		}
		m.q.enqueue(m, it)
	}
	reg.drainAll()
	res, err := reg.Quantiles("m", []float64{0, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 || res.Values[0] != 1 || res.Values[1] != 5 {
		t.Fatalf("served %+v, want the four plain values 1..5 without 3", res)
	}
	st := reg.ApplyStatus()
	if st.AppliedBatches != 3 || st.CoalescedBatches != 3 || st.ApplyErrors != 1 || !strings.Contains(st.LastError, ErrWeightsUnsupported.Error()) {
		t.Fatalf("apply status %+v, want 3 applied in one run and 1 ErrWeightsUnsupported", st)
	}
}

// TestApplyBackpressureShed covers the shed policy: a full queue fails the
// reservation with ErrApplyBacklog — mapped to 429, so a client retries — and
// nothing about the queued backlog is disturbed.
func TestApplyBackpressureShed(t *testing.T) {
	cfg := applyTestConfig()
	cfg.ApplyQueueDepth = 2
	cfg.ApplyShed = true
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	enqueueDirect(t, m, []float64{1})
	enqueueDirect(t, m, []float64{2})
	if err := m.q.reserve(false); !errors.Is(err, ErrApplyBacklog) {
		t.Fatalf("reserve on a full queue: %v, want ErrApplyBacklog", err)
	}
	if got := statusFor(ErrApplyBacklog); got != http.StatusTooManyRequests {
		t.Fatalf("statusFor(ErrApplyBacklog) = %d, want 429", got)
	}
	// Replay must never shed: forceBlock bypasses the policy (there is space
	// again after a drain).
	st := reg.ApplyStatus()
	if st.Policy != "shed" || st.ShedBatches != 1 || st.PendingBatches != 2 {
		t.Fatalf("apply status %+v, want policy=shed shed=1 pending=2", st)
	}
	reg.drainAll()
	if st := reg.ApplyStatus(); st.PendingBatches != 0 || st.AppliedBatches != 2 {
		t.Fatalf("after drain: %+v, want pending=0 applied=2", st)
	}
	res, err := reg.Quantiles("m", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("count %d after shed, want 2 (the shed batch must not have landed)", res.Count)
	}
}

// TestApplyBackpressureBlocks covers the default policy: a reservation
// against a full queue waits for a drainer to free space instead of failing,
// and completes once one does.
func TestApplyBackpressureBlocks(t *testing.T) {
	cfg := applyTestConfig()
	cfg.ApplyQueueDepth = 1
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	enqueueDirect(t, m, []float64{1})

	done := make(chan error, 1)
	go func() {
		if err := m.q.reserve(false); err != nil {
			done <- err
			return
		}
		m.q.enqueue(m, applyItem{vs: []float64{2}})
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.pool.blockedEnqueues.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reservation against a full queue never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("blocked reservation returned early: %v", err)
	default:
	}
	reg.drainAll() // frees the slot; the blocked reservation proceeds
	if err := <-done; err != nil {
		t.Fatalf("reservation after drain: %v", err)
	}
	reg.drainAll()
	if st := reg.ApplyStatus(); st.AppliedBatches != 2 || st.BlockedEnqueues != 1 {
		t.Fatalf("apply status %+v, want applied=2 blocked=1", st)
	}
}

// TestJSONIngestShedsBeforeDurable puts POST /ingest under the shed policy:
// with the queue full, a JSON batch is refused with 429 ErrApplyBacklog
// before its WAL append, so it is absent from the next answer and from the
// state a crash recovers.
func TestJSONIngestShedsBeforeDurable(t *testing.T) {
	mem := faultfs.NewMem()
	cfg := applyTestConfig()
	cfg.ApplyQueueDepth = 1
	cfg.ApplyShed = true
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, reg, crashOptions(mem))
	if w := do(t, s, "POST", "/ingest", ingestBody("m", []float64{1, 2, 3})); w.Code != http.StatusOK {
		t.Fatalf("first batch: status %d: %s", w.Code, w.Body.String())
	}
	w := do(t, s, "POST", "/ingest", ingestBody("m", []float64{4, 5}))
	if w.Code != http.StatusTooManyRequests || !strings.Contains(w.Body.String(), ErrApplyBacklog.Error()) {
		t.Fatalf("batch against a full queue: status %d: %s, want 429 %v", w.Code, w.Body.String(), ErrApplyBacklog)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	w = do(t, s, "GET", "/quantile?metric=m&phi=0.5", "")
	var qr quantileResponse
	if err := json.NewDecoder(w.Body).Decode(&qr); err != nil || w.Code != http.StatusOK {
		t.Fatalf("query: status %d, err %v", w.Code, err)
	}
	if qr.Count != 3 {
		t.Fatalf("count %d after the shed batch, want 3", qr.Count)
	}

	s.Kill()
	mem.Crash()
	cfg.ApplyWorkers = 0 // recovery replays through the default pool
	reg2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustNew(t, reg2, crashOptions(mem))
	mustCount(t, reg2, "m", 3)
}

// TestJSONIngestAppliesAsync pins that a POST /ingest 200 means durable and
// enqueued: with the worker pool disabled the acked JSON batch waits in the
// apply queue, visible as /metricsz pendingApplyBatches, and the next
// /quantile drains it into the answer.
func TestJSONIngestAppliesAsync(t *testing.T) {
	reg, err := NewRegistry(applyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, reg, Options{})
	if w := do(t, s, "POST", "/ingest", ingestBody("m", []float64{4, 1, 3, 2})); w.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", w.Code, w.Body.String())
	}
	mz := metricsz(t, s)
	if len(mz.Metrics) != 1 || mz.Metrics[0].PendingApplyBatches != 1 || mz.Metrics[0].Count != 0 || mz.Apply.PendingBatches != 1 {
		t.Fatalf("metricsz after ack %+v apply %+v, want one pending batch and nothing applied", mz.Metrics, mz.Apply)
	}
	w := do(t, s, "GET", "/quantile?metric=m&phi=0.5", "")
	var qr quantileResponse
	if err := json.NewDecoder(w.Body).Decode(&qr); err != nil || w.Code != http.StatusOK {
		t.Fatalf("query: status %d, err %v", w.Code, err)
	}
	if qr.Count != 4 {
		t.Fatalf("query counted %d values, want the acked 4", qr.Count)
	}
	if mz := metricsz(t, s); mz.Metrics[0].PendingApplyBatches != 0 || mz.Metrics[0].Count != 4 {
		t.Fatalf("metricsz after query %+v, want the batch applied", mz.Metrics)
	}
}

// TestRegistryCreateVsIngestStress hammers the lock-free read path: metric
// creation (copy-on-write snapshot swap) races sync ingest, async enqueues,
// worker drains, queries, and listings. Run under -race (make race), the
// point is the detector; the closing accounting check catches lost updates.
func TestRegistryCreateVsIngestStress(t *testing.T) {
	cfg := Config{Epsilon: 0.02, N: 100_000, ApplyWorkers: 2}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const goroutines, iters, names = 8, 300, 23
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 104729))
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("stress-%d", rng.Intn(names))
				switch i % 3 {
				case 0:
					if err := reg.Ingest(name, []float64{1, 2, 3}); err != nil {
						t.Error(err)
						return
					}
					total.Add(3)
				case 1:
					m, err := reg.getOrCreate(name)
					if err != nil {
						t.Error(err)
						return
					}
					enqueueDirect(t, m, []float64{4, 5, 6})
					total.Add(3)
				default:
					// A metric another goroutine has just created may hold no
					// value yet: quantile.ErrEmpty is a 404 like an unknown
					// metric, not a failure.
					if _, err := reg.Quantiles(name, []float64{0.5}, false); err != nil &&
						!errors.Is(err, ErrUnknownMetric) && !errors.Is(err, quantile.ErrEmpty) {
						t.Error(err)
						return
					}
					_ = reg.Names()
				}
			}
		}(g)
	}
	wg.Wait()
	reg.drainAll()
	var ingested int64
	for _, st := range reg.Status() {
		ingested += st.IngestedValues
	}
	if ingested != total.Load() {
		t.Fatalf("registry counted %d ingested values, writers sent %d", ingested, total.Load())
	}
	if st := reg.ApplyStatus(); st.PendingBatches != 0 {
		t.Fatalf("pending %d batches after drainAll", st.PendingBatches)
	}
}

// TestApplyHandoffZeroAlloc is the satellite allocation gate: the binary
// ingest handoff — reserve, zero-copy enqueue of a frame-buffer value view,
// drain through apply into the metric's summary — allocates nothing per
// batch at steady state. This is what "the decoded batch is never copied
// between the wire and the sketch" means, enforced.
func TestApplyHandoffZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	cfg := applyTestConfig()
	cfg.Windows = 0 // the ring is exercised elsewhere; this gate is the sketch handoff
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}

	const batch = 512
	buf := getFrameBuf(batch * 8)
	defer buf.release()
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < batch; i++ {
		binary.LittleEndian.PutUint64(buf.b[8*i:], math.Float64bits(rng.Float64()))
	}
	vs := f64view(buf.b, batch, nil)
	if !viewInto(buf.b, vs) {
		t.Skip("zero-copy value view unavailable on this host (big-endian); the handoff copies by design")
	}

	step := func() {
		if err := m.q.reserve(false); err != nil {
			t.Fatal(err)
		}
		s.enqueueApply(m, vs, nil, buf)
		m.q.drain(m)
	}
	// Warm the sketch through buffer fills and collapses, and the queue/pool
	// through their first-growth appends.
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1024, step)
	if allocs != 0 {
		t.Fatalf("decode→queue→AddBatch handoff allocated %v per batch at steady state, want 0", allocs)
	}
	if got := int64(buf.refs.Load()); got != 1 {
		t.Fatalf("frame buffer refcount %d after drains, want 1 (leaked or double-released references)", got)
	}
}

// TestEnqueueApplyCopiesScratchViews pins the safety valve: a value slice
// that does NOT view into the frame buffer (the big-endian / misaligned
// scratch-decode fallback) must be copied at enqueue, because the scratch is
// reused by the next frame.
func TestEnqueueApplyCopiesScratchViews(t *testing.T) {
	reg, err := NewRegistry(applyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	buf := getFrameBuf(64)
	defer buf.release()
	scratch := []float64{42, 43, 44} // stands in for the decode scratch
	if err := m.q.reserve(false); err != nil {
		t.Fatal(err)
	}
	s.enqueueApply(m, scratch, nil, buf)
	if got := int64(buf.refs.Load()); got != 1 {
		t.Fatalf("buffer refcount %d after a scratch enqueue, want 1 (the queue must not retain a buffer the values do not view into)", got)
	}
	scratch[0], scratch[1], scratch[2] = -1, -1, -1 // the next frame overwrites the scratch
	m.q.drain(m)
	res, err := reg.Quantiles("m", []float64{0, 0.5, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 42 || res.Values[2] != 44 {
		t.Fatalf("served %v: the enqueued batch aliased the reused scratch instead of copying it", res.Values)
	}
}
