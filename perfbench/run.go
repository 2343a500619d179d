package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"mrl/internal/serve"
)

var inf = math.Inf(1)

// phiSets are the five dashboard phi lists queries cycle through, sent
// verbatim as the phi parameter (the query cache keys on it).
var phiSets = []string{"0.5", "0.5,0.9,0.99", "0.25,0.5,0.75", "0.9,0.95,0.99,0.999", "0.01,0.1,0.5,0.9,0.99"}

// finalPhis are asked of every metric once the measured phases are over.
const finalPhis = "0.001,0.01,0.1,0.25,0.5,0.75,0.9,0.99,0.999"

func parsePhis(raw string) []float64 {
	var out []float64
	for len(raw) > 0 {
		i := 0
		for i < len(raw) && raw[i] != ',' {
			i++
		}
		v, _ := strconv.ParseFloat(raw[:i], 64)
		out = append(out, v)
		if i < len(raw) {
			i++
		}
		raw = raw[i:]
	}
	return out
}

// runner holds one run: the workload's metrics and deployment, and what
// the drivers, the checker and the tracer record.
type runner struct {
	wl      string
	seed    int64
	seconds float64
	tr      *tracer
	epoch   time.Time
	rng     *rand.Rand

	ms        []*metric
	specs     []nodeSpec
	clustered bool
	contract  contract
	prepared  *memFS
	dep       *deployment
	arena     arena

	setups    []float64
	lanes     []*lane // open-loop lanes of the measured open loop
	openFrom  int64   // measured window of the open loop, on the run clock
	openTo    int64
	openStart int64
	answers   []*answerCheck
	attempted int
	failedOps int
	report    checkReport
	e2e       map[string]float64

	acked    ackTotals
	layers   map[string]float64
	snaps    [2]layerSnap
	snapDone chan struct{}
	pending  []float64
}

// ackTotals is what was acknowledged inside the per-layer counter window.
type ackTotals struct{ batches, values, binValues int64 }

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// logf prints one progress line, stamped with the run clock.
func (r *runner) logf(format string, args ...any) {
	fmt.Printf("[%7.2fs] %s\n", time.Since(r.epoch).Seconds(), fmt.Sprintf(format, args...))
}

// sid draws a driver session id from the seed.
func (r *runner) sid() uint64 { return r.rng.Uint64() | 2 }

// stampDone marks batches a finished closed loop or preparation sent as
// sent and acknowledged now, so later open-loop queries count them as
// acknowledged before they were sent.
func (r *runner) stampDone() {
	t := r.now()
	for _, m := range r.ms {
		for i := range m.batches {
			if m.batches[i].sent == 0 {
				m.batches[i].sent, m.batches[i].acked = t, t
			}
		}
	}
}

// markBase records the prepared batches.
func (r *runner) markBase() {
	for _, m := range r.ms {
		for _, b := range m.batches {
			if !b.ok {
				panic("perfbench: an unacknowledged batch in the prepared state")
			}
		}
		m.base = len(m.batches)
	}
	r.stampDone()
	var n int64
	for _, m := range r.ms {
		n += m.next
	}
	r.logf("prepared %d values over %d metrics, %.1f MB on tmpfs", n, len(r.ms), float64(r.prepared.bytes())/1e6)
}

// setup recovers the prepared state reps times and keeps the last
// deployment; setup_s is the median time from constructing the registries
// to every listener answering.
func (r *runner) setup(reps int) error {
	for i := 0; i < reps; i++ {
		runtime.GC()
		fsys := r.prepared.clone()
		start := time.Now()
		d, err := startDeployment(fsys, r.specs, r.clustered, r.tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		if r.tr != nil {
			r.tr.add(span{ID: r.tr.id(), Name: "setup", Start: r.tr.at(start), End: r.now()})
		}
		if i == reps-1 {
			r.dep = d
			fsys.discard.Store(true)
			break
		}
		if err := d.stop(); err != nil {
			return err
		}
		fsys.free()
	}
	r.prepared.free()
	runtime.GC()
	r.logf("set-up x%d: %.3fs median", reps, median(append([]float64(nil), r.setups...)))
	return nil
}

// openSpec is one open-loop phase: fixed-rate schedules, encoded before
// the clock starts.
type openSpec struct {
	warm, measure time.Duration

	binIDs  []int // MRLB batches on the TCP stream, metric drawn uniformly
	binRate float64
	binSize int

	bodyIDs     []int // MRLB bodies to POST /ingest/bin
	bodyRate    float64
	bodyBatches int
	bodySize    int

	jsonIDs  []int // POST /ingest, round-robin
	jsonRate float64
	jsonSize int

	queryIDs    []int // GET /quantile, zipf popularity
	queryRate   float64
	windowEvery int // every windowEvery-th query is windowed; 0 = none
}

// queryDelay keeps queries out of the first moments of the warm-up, when a
// fresh metric or window may not hold a value yet.
const queryDelay = 500 * time.Millisecond

func schedule(rate float64, from, to time.Duration) []int64 {
	var out []int64
	step := float64(time.Second) / rate
	for k := 0; ; k++ {
		t := from + time.Duration(float64(k)*step)
		if t >= to {
			return out
		}
		out = append(out, int64(t))
	}
}

// buildOpen encodes every operation of an open loop.
func (r *runner) buildOpen(sp openSpec) ([]*lane, error) {
	end := sp.warm + sp.measure
	var lanes []*lane
	nextSpan := func() uint64 {
		if r.tr == nil {
			return 0
		}
		return r.tr.id()
	}
	if len(sp.binIDs) > 0 {
		ln := &lane{addr: r.dep.nodes[0].binAddr, hello: binStream(r.sid(), r.ms, sp.binIDs)}
		var (
			seq   uint64
			frame []byte
		)
		vals := make([]float64, sp.binSize)
		for k, due := range schedule(sp.binRate, 0, end) {
			// One batch per metric first, so every metric holds data
			// before the first query.
			id := sp.binIDs[k%len(sp.binIDs)]
			if k >= len(sp.binIDs) {
				id = sp.binIDs[r.rng.Intn(len(sp.binIDs))]
			}
			m := r.ms[id]
			pos := m.take(sp.binSize)
			m.gen.fill(m.idx, pos, vals)
			seq++
			frame = serve.AppendBatchSeqFrame(frame[:0], uint32(id), seq, vals, nil)
			wire, err := r.arena.alloc(len(frame))
			if err != nil {
				return nil, err
			}
			copy(wire, frame)
			ln.ops = append(ln.ops, &op{kind: opBin, due: due, parts: []part{{id, pos, int32(sp.binSize)}}, wire: wire, span: nextSpan()})
		}
		lanes = append(lanes, ln)
	}
	front := r.dep.front()
	hostport := front[len("http://"):]
	var ingestLane *lane
	if len(sp.bodyIDs) > 0 {
		ln := &lane{addr: hostport, http: true}
		ingestLane = ln
		sid := r.sid()
		var seq uint64
		vals := make([]float64, sp.bodySize)
		for _, due := range schedule(sp.bodyRate, 0, end) {
			o := &op{kind: opBody, due: due, span: nextSpan()}
			body := binStream(sid, nil, nil)
			interned := map[int]bool{}
			for k := 0; k < sp.bodyBatches; k++ {
				id := sp.bodyIDs[r.rng.Intn(len(sp.bodyIDs))]
				m := r.ms[id]
				if !interned[id] {
					body = serve.AppendDictFrame(body, uint32(id), m.name, m.backend)
					interned[id] = true
				}
				pos := m.take(sp.bodySize)
				m.gen.fill(m.idx, pos, vals)
				seq++
				body = serve.AppendBatchSeqFrame(body, uint32(id), seq, vals, nil)
				o.parts = append(o.parts, part{id, pos, int32(sp.bodySize)})
			}
			wire, err := httpRequest(&r.arena, "POST", "/ingest/bin", o.span, "application/octet-stream", body)
			if err != nil {
				return nil, err
			}
			o.wire = wire
			ln.ops = append(ln.ops, o)
		}
		lanes = append(lanes, ln)
	}
	if len(sp.jsonIDs) > 0 || len(sp.queryIDs) > 0 {
		// JSON ingest rides the ingest connection when there is one, and
		// the query connection otherwise.
		ln := &lane{addr: hostport, http: true}
		jl := ln
		if ingestLane != nil {
			jl = ingestLane
		}
		for k, due := range schedule(sp.jsonRate, 0, end) {
			id := sp.jsonIDs[k%len(sp.jsonIDs)]
			m := r.ms[id]
			pos := m.take(sp.jsonSize)
			o := &op{kind: opJSON, due: due, parts: []part{{id, pos, int32(sp.jsonSize)}}, span: nextSpan()}
			wire, err := httpRequest(&r.arena, "POST", "/ingest", o.span, "application/json", jsonIngestBody(m.name, m.backend, m.values(pos, sp.jsonSize)))
			if err != nil {
				return nil, err
			}
			o.wire = wire
			jl.ops = append(jl.ops, o)
		}
		dues := schedule(sp.queryRate, queryDelay, end)
		picks := zipfOrder(r.rng, len(sp.queryIDs), len(dues), 1.0)
		for k, due := range dues {
			id := sp.queryIDs[picks[k]]
			o := &op{kind: opQuery, due: due, metric: id, phiset: k % len(phiSets), span: nextSpan()}
			o.windowed = sp.windowEvery > 0 && k%sp.windowEvery == sp.windowEvery-1
			target := "/quantile?metric=" + url.QueryEscape(r.ms[id].name) + "&phi=" + phiSets[o.phiset]
			if o.windowed {
				target += "&window=true"
			}
			wire, err := httpRequest(&r.arena, "GET", target, o.span, "", nil)
			if err != nil {
				return nil, err
			}
			o.wire = wire
			ln.ops = append(ln.ops, o)
		}
		lanes = append(lanes, ln)
	}
	for _, ln := range lanes {
		sort.SliceStable(ln.ops, func(i, j int) bool { return ln.ops[i].due < ln.ops[j].due })
	}
	return lanes, nil
}

// runOpen runs an open loop and folds what it acknowledged into the
// metrics; the measured window is [warm, warm+measure) of due times.
// Traced, the per-layer counters are taken over the measured window when
// counters is set.
func (r *runner) runOpen(sp openSpec, counters bool) error {
	lanes, err := r.buildOpen(sp)
	if err != nil {
		return err
	}
	start := r.now() + int64(50*time.Millisecond)
	r.lanes, r.openStart = lanes, start
	r.openFrom, r.openTo = start+int64(sp.warm), start+int64(sp.warm+sp.measure)
	if counters {
		r.snapAt(r.openFrom, r.openTo)
	}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		r.samplePending()
	}()
	r.logf("open loop: %d lanes encoded", len(lanes))
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	t0 := time.Now()
	defer func() {
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		cpu := time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
		r.logf("open loop cpu %.2f cores", cpu.Seconds()/time.Since(t0).Seconds())
	}()
	if err := runLanes(lanes, r.epoch, start, 15*time.Second); err != nil {
		// What never came back is counted as failed below.
		r.logf("open loop: %v", err)
	}
	<-sampled
	r.waitSnaps()
	r.logf("open loop done")
	r.arena.free()
	kinds := [...]string{opBin: "driver.bin", opJSON: "driver.json", opQuery: "driver.query", opBody: "driver.body"}
	for _, ln := range lanes {
		for _, o := range ln.ops {
			o.wire = nil
			if r.tr != nil && o.done != 0 {
				r.tr.add(span{ID: o.span, Name: kinds[o.kind], Start: start + o.due, End: o.done})
			}
			r.attempted++
			if o.failed || o.done == 0 {
				if r.failedOps < 5 {
					r.logf("failed: kind %d due %.3fs sent %.3fs done %.3fs: %s", o.kind, float64(o.due)/1e9,
						float64(o.sent-start)/1e9, float64(o.done-start)/1e9, o.body)
				}
				r.failedOps++
			}
			for _, p := range o.parts {
				m := r.ms[p.m]
				m.batches = append(m.batches, batch{pos: p.pos, size: p.size, ok: !o.failed && o.done != 0, sent: o.sent, acked: o.done})
			}
		}
	}
	return nil
}

// collectAnswers turns the open loop's query replies into checks.
func (r *runner) collectAnswers() {
	applied := make([][]batch, len(r.ms))
	for i, m := range r.ms {
		for _, b := range m.batches {
			if b.ok {
				applied[i] = append(applied[i], b)
			}
		}
	}
	for _, ln := range r.lanes {
		for _, o := range ln.ops {
			if o.kind != opQuery || o.failed || o.done == 0 {
				continue
			}
			a, err := parseAnswer(o.body)
			o.body = nil
			if err != nil {
				r.report.fail("%s: unreadable answer: %v", r.ms[o.metric].name, err)
				continue
			}
			ap := applied[o.metric]
			lo := sort.Search(len(ap), func(i int) bool { return ap[i].acked >= o.sent })
			hi := sort.Search(len(ap), func(i int) bool { return ap[i].sent >= o.done })
			r.answers = append(r.answers, &answerCheck{m: o.metric, phis: parsePhis(phiSets[o.phiset]), a: a,
				windowed: o.windowed, lo: lo, hi: hi, cluster: r.clustered})
		}
	}
}

// finalAnswers asks every metric once, all-time, after the measured
// phases: the count must equal what was acknowledged.
func (r *runner) finalAnswers() error {
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	phis := parsePhis(finalPhis)
	for i, m := range r.ms {
		resp, err := c.Get(r.dep.front() + "/quantile?metric=" + url.QueryEscape(m.name) + "&phi=" + finalPhis)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		r.attempted++
		if resp.StatusCode != http.StatusOK {
			r.report.fail("%s: final query answered %s: %s", m.name, resp.Status, body)
			continue
		}
		a, err := parseAnswer(body)
		if err != nil {
			r.report.fail("%s: unreadable final answer: %v", m.name, err)
			continue
		}
		r.answers = append(r.answers, &answerCheck{m: i, phis: phis, a: a, final: true, cluster: r.clustered})
	}
	return nil
}

// check runs the exact oracle over every collected answer.
func (r *runner) check() {
	byMetric := make([][]*answerCheck, len(r.ms))
	for _, ac := range r.answers {
		byMetric[ac.m] = append(byMetric[ac.m], ac)
	}
	for i, m := range r.ms {
		checkMetric(m, byMetric[i], r.contract, &r.report)
	}
}

// heapMB waits for the apply queues to drain, forces a collection and
// reports the live Go heap in MB. Queued batches pin their frame buffers,
// so reading the heap mid-backlog would measure the backlog.
func (r *runner) heapMB() float64 {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var pending uint64
		for _, nd := range r.dep.nodes {
			pending += nd.reg.ApplyStatus().PendingBatches
		}
		if pending == 0 {
			break
		}
	}
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	fmt.Printf("heap %.1f MB\n", float64(st.HeapAlloc)/1e6)
	return float64(st.HeapAlloc) / 1e6
}

// openLatencies fills the open-loop latency metrics.
func (r *runner) openLatencies() {
	var ops []*op
	for _, ln := range r.lanes {
		ops = append(ops, ln.ops...)
	}
	from, to := r.openFrom-r.openStart, r.openTo-r.openStart
	ack := latencies(ops, opBin, r.openStart, from, to)
	ack = append(ack, latencies(ops, opBody, r.openStart, from, to)...)
	js := latencies(ops, opJSON, r.openStart, from, to)
	qs := latencies(ops, opQuery, r.openStart, from, to)
	fmt.Printf("open loop: %d acks, %d json, %d queries measured\n", len(ack), len(js), len(qs))
	for _, ln := range r.lanes {
		var late []float64
		for _, o := range ln.ops {
			if o.due >= from && o.due < to {
				late = append(late, float64(o.sent-(r.openStart+o.due))/1e6)
			}
		}
		fmt.Printf("lane %s http=%v: send lateness p50 %.3fms p90 %.3fms p99 %.3fms\n", ln.addr, ln.http,
			quantileOf(late, 0.5), quantileOf(late, 0.9), quantileOf(late, 0.99))
	}
	r.e2e["ack_p50_ms"], r.e2e["ack_p99_ms"] = slicedMedian(ops, r.openStart, from, to, opBin, opBody), quantileOf(ack, 0.99)
	r.e2e["json_p50_ms"], r.e2e["json_p99_ms"] = slicedMedian(ops, r.openStart, from, to, opJSON), quantileOf(js, 0.99)
	r.e2e["query_p50_ms"], r.e2e["query_p99_ms"] = slicedMedian(ops, r.openStart, from, to, opQuery), quantileOf(qs, 0.99)
}

// latencySlices is how many equal slices of the measured window a median
// latency is taken over.
const latencySlices = 6

// slicedMedian is the median over slices of the measured window of each
// slice's median latency: a stretch of the run where the machine was slow
// (another tenant's load, a collection) moves it less than it moves the
// median over the whole window.
func slicedMedian(ops []*op, start, from, to int64, kinds ...opKind) float64 {
	per := make([]float64, latencySlices)
	for i := range per {
		lo := from + (to-from)*int64(i)/latencySlices
		hi := from + (to-from)*int64(i+1)/latencySlices
		var xs []float64
		for _, k := range kinds {
			xs = append(xs, latencies(ops, k, start, lo, hi)...)
		}
		per[i] = median(xs)
	}
	return median(per)
}
