package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mrl/internal/cluster"
)

// Warm-ups run before each measured phase and are excluded from it.
const (
	warmOpen   = 1500 * time.Millisecond
	warmClosed = 500 * time.Millisecond
	// closedSeconds is the closed loop's measured share of --seconds on
	// mixed and cluster; the open loop gets the rest.
	closedSeconds = 12 * time.Second
	// ingestClosed is ingest's: at ~6.5M values/s per hot metric it keeps
	// each under its 50M capacity.
	ingestClosed = 4 * time.Second
)

// fill sends perMetric values to every listed metric, unmeasured, so the
// live shards a recovery leaves empty hold a full sketch before the open
// loop starts: query and snapshot cost grow with the filled buffers, and
// would otherwise climb through the measured window.
func (r *runner) fill(ids []int, perMetric, size int) error {
	n := perMetric / size * len(ids)
	stop := func(sent int) bool { return sent >= n }
	var err error
	if r.clustered {
		err = runBodyLoop(r.dep.front(), r.sid(), r.ms, ids, 16, size, func(sent int) bool { return sent*16 >= n }, nil, nil)
	} else {
		err = runBinWindow(r.dep.nodes[0].binAddr, r.sid(), r.ms, ids, size, 32, stop, nil, nil)
	}
	r.stampDone()
	r.logf("filled %d metrics with %d values each", len(ids), perMetric)
	return err
}

func idsOf(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// concurrently runs drive once per id group, each group on its own
// connection and session, and waits for all of them.
func (r *runner) concurrently(groups [][]int, drive func(ids []int, sid uint64) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i, ids := range groups {
		wg.Add(1)
		i, ids, sid := i, ids, r.sid()
		go func() {
			defer wg.Done()
			errs[i] = drive(ids, sid)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *runner) meter(warm, measure time.Duration) *ackMeter {
	start := r.now()
	return &ackMeter{epoch: r.epoch, from: start + int64(warm), to: start + int64(warm+measure)}
}

func (r *runner) closedDone(meter *ackMeter) {
	r.e2e["ingest_vps"] = meter.rate()
	r.attempted += int(meter.batches.Load())
	r.stampDone()
	r.logf("closed loop: %.0f values/s", r.e2e["ingest_vps"])
}

// ingest: closed loop at saturation on two hot metrics, then an open-loop
// probe of the same deployment for the latency metrics.
func (r *runner) runIngest() error {
	const (
		hot       = 2
		batchSize = 4096
		prepared  = 10 * permSize / batchSize // batches per hot metric
	)
	pg := newPermGen(r.seed, 4)
	pg.load()
	for i := 0; i < hot; i++ {
		r.ms = append(r.ms, &metric{name: fmt.Sprintf("ingest.hot.%d", i), gen: pg, idx: i})
	}
	lat := latencyGen{seed: uint64(r.seed)}
	for i := 0; i < 4; i++ {
		r.ms = append(r.ms, &metric{name: fmt.Sprintf("ingest.json.%d", i), gen: lat, idx: hot + i})
	}
	r.specs = []nodeSpec{{eps: defEpsilon, n: defN, dir: "/n0", rotateEvery: time.Minute, binary: true}}
	r.contract = contract{eps: defEpsilon, n: defN}

	// Prepared state: a WAL of 10 permutation epochs per hot metric, no
	// checkpoint.
	r.prepared = newMemFS()
	d, err := startDeployment(r.prepared, r.specs, false, nil)
	if err != nil {
		return err
	}
	hots := [][]int{{0}, {1}}
	if err := r.concurrently(hots, func(ids []int, sid uint64) error {
		return runBinClient(d.nodes[0].binAddr, sid, r.ms[ids[0]], batchSize, func(sent int) bool { return sent >= prepared }, nil, nil)
	}); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	r.markBase()
	if err := r.setup(3); err != nil {
		return err
	}

	// The open-loop probe runs first: the closed loop leaves apply backlogs
	// whose pooled frame buffers stay pinned, so the heap is read before
	// it.
	if err := r.fill(idsOf(hot, hot+4), 131072, 1024); err != nil {
		return err
	}
	sp := openSpec{
		warm: warmOpen, measure: time.Duration(r.seconds*float64(time.Second)) - ingestClosed,
		binIDs: idsOf(0, hot), binRate: 250, binSize: 1024,
		jsonIDs: idsOf(hot, hot+4), jsonRate: 100, jsonSize: 256,
		queryIDs: idsOf(0, hot+4), queryRate: 80, windowEvery: 5,
	}
	if err := r.runOpen(sp, false); err != nil {
		return err
	}
	pg.drop() // driver data, not the deployment's
	r.e2e["heap_mb"] = r.heapMB()
	pg.load()

	meter := r.meter(warmClosed, ingestClosed)
	r.snapAt(meter.from, meter.to)
	err = r.concurrently(hots, func(ids []int, sid uint64) error {
		return runBinClient(r.dep.nodes[0].binAddr, sid, r.ms[ids[0]], batchSize, meter.done, meter, r.tr)
	})
	r.closedDone(meter)
	if err != nil {
		return err
	}
	r.acked = ackTotals{batches: meter.batches.Load(), values: meter.values.Load(), binValues: meter.values.Load()}
	r.waitSnaps()
	pg.drop()
	return nil
}

// mixed: an open loop well below saturation over many metrics, writes
// beside reads with windows rotating every second; then a closed loop over
// the same metrics.
func (r *runner) runMixed() error {
	const (
		binMetrics  = 45
		jsonMetrics = 5
		batchSize   = 1024
	)
	lat := latencyGen{seed: uint64(r.seed)}
	for i := 0; i < binMetrics+jsonMetrics; i++ {
		name := fmt.Sprintf("mixed.bin.%03d", i)
		if i >= binMetrics {
			name = fmt.Sprintf("mixed.json.%02d", i-binMetrics)
		}
		m := &metric{name: name, gen: lat, idx: i}
		if i < binMetrics && i%9 == 8 {
			m.backend = "kll"
		}
		r.ms = append(r.ms, m)
	}
	spec := nodeSpec{eps: defEpsilon, n: defN, dir: "/n0", checkpoint: true, ckptEvery: time.Hour, binary: true}
	r.specs = []nodeSpec{spec}
	r.contract = contract{eps: defEpsilon, n: defN}

	// Prepared state: a checkpoint of every metric, then a WAL suffix left
	// by a crash-stop.
	all := idsOf(0, len(r.ms))
	r.prepared = newMemFS()
	for life, per := range []int{80, 16} {
		d, err := startDeployment(r.prepared, r.specs, false, nil)
		if err != nil {
			return err
		}
		n := per * len(all)
		if err := runBinWindow(d.nodes[0].binAddr, r.sid(), r.ms, all, batchSize, 32, func(sent int) bool { return sent >= n }, nil, nil); err != nil {
			return err
		}
		if life == 0 {
			err = d.stop()
		} else {
			d.kill()
		}
		if err != nil {
			return err
		}
	}
	r.markBase()
	// Periodic checkpoints (hourly here) stay out of the measured phases:
	// one holds the ingest gate for hundreds of milliseconds, which made
	// every tail latency and the closed loop's throughput a count of how
	// many checkpoints the window caught. The checkpoints each set-up's
	// shutdown writes are what the traced run measures.
	r.specs[0].rotateEvery = time.Second
	if err := r.setup(5); err != nil {
		return err
	}

	if err := r.fill(all, 131072, batchSize); err != nil {
		return err
	}
	// Five seconds of warm-up: every live window then holds open-loop
	// traffic only.
	sp := openSpec{
		warm: 5 * time.Second, measure: time.Duration(r.seconds*float64(time.Second)) - closedSeconds,
		binIDs: idsOf(0, binMetrics), binRate: 1000, binSize: 512,
		jsonIDs: idsOf(binMetrics, binMetrics+jsonMetrics), jsonRate: 100, jsonSize: 256,
		queryIDs: interleave(idsOf(0, binMetrics), idsOf(binMetrics, binMetrics+jsonMetrics), 9), queryRate: 42, windowEvery: 5,
	}
	if err := r.openWithCounters(sp); err != nil {
		return err
	}
	half := binMetrics / 2
	meter := r.meter(warmClosed, closedSeconds)
	err := r.concurrently([][]int{idsOf(0, half), idsOf(half, binMetrics)}, func(ids []int, sid uint64) error {
		return runBinWindow(r.dep.nodes[0].binAddr, sid, r.ms, ids, batchSize, 32, meter.done, meter, r.tr)
	})
	r.closedDone(meter)
	return err
}

// cluster: three nodes and a coordinator; MRLB bodies and queries through
// the coordinator at fixed rates, then a short closed loop of bodies.
func (r *runner) runCluster() error {
	const (
		nodes       = 3
		binMetrics  = 60
		jsonMetrics = 6
	)
	lat := latencyGen{seed: uint64(r.seed)}
	for i := 0; i < binMetrics+jsonMetrics; i++ {
		name := fmt.Sprintf("cluster.bin.%02d", i)
		if i >= binMetrics {
			name = fmt.Sprintf("cluster.json.%d", i-binMetrics)
		}
		r.ms = append(r.ms, &metric{name: name, gen: lat, idx: i})
	}
	eps, n, _ := cluster.NodeProvision(defEpsilon, defN, nodes)
	for i := 0; i < nodes; i++ {
		r.specs = append(r.specs, nodeSpec{eps: eps, n: n, dir: fmt.Sprintf("/n%d", i), checkpoint: true,
			ckptEvery: 10 * time.Minute, rotateEvery: time.Minute})
	}
	r.clustered = true
	r.contract = contract{eps: defEpsilon, n: defN}

	// Prepared state: every node's checkpoint, written at shutdown.
	all := idsOf(0, len(r.ms))
	r.prepared = newMemFS()
	d, err := startDeployment(r.prepared, r.specs, true, nil)
	if err != nil {
		return err
	}
	bodies := len(all) * 64 / 16
	if err := runBodyLoop(d.front(), r.sid(), r.ms, all, 16, 1024, func(sent int) bool { return sent >= bodies }, nil, nil); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	r.markBase()
	if err := r.setup(5); err != nil {
		return err
	}

	if err := r.fill(all, 196608, 1024); err != nil {
		return err
	}
	sp := openSpec{
		warm: warmOpen, measure: time.Duration(r.seconds*float64(time.Second)) - closedSeconds,
		bodyIDs: idsOf(0, binMetrics), bodyRate: 100, bodyBatches: 8, bodySize: 512,
		jsonIDs: idsOf(binMetrics, binMetrics+jsonMetrics), jsonRate: 80, jsonSize: 256,
		queryIDs: interleave(idsOf(0, binMetrics), idsOf(binMetrics, binMetrics+jsonMetrics), 10), queryRate: 42,
	}
	if err := r.openWithCounters(sp); err != nil {
		return err
	}
	half := binMetrics / 2
	meter := r.meter(warmClosed, closedSeconds)
	err = r.concurrently([][]int{idsOf(0, half), idsOf(half, binMetrics)}, func(ids []int, sid uint64) error {
		return runBodyLoop(r.dep.front(), sid, r.ms, ids, 16, 1024, meter.done, meter, r.tr)
	})
	r.closedDone(meter)
	return err
}

// openWithCounters runs the workload's main open loop with the per-layer
// counter window on its measured part.
func (r *runner) openWithCounters(sp openSpec) error {
	if err := r.runOpen(sp, true); err != nil {
		return err
	}
	r.acked = r.openAcked()
	r.e2e["heap_mb"] = r.heapMB()
	return nil
}
