package main

import (
	"sort"
	"time"

	"mrl/quantile"
)

// layerSnap is every counter the per-layer metrics difference, taken at
// one instant.
type layerSnap struct {
	t                                     int64
	walBytes, walSyncs, walSyncNs         int64
	ckptBytes, snapBytes                  int64
	binRead, binWrites, binAcks           int64
	workers                               int
	busy                                  float64
	enqueued, applied, coalesced, blocked int64
	hits, misses                          uint64
	compactions, memElems, metrics        int64
}

func (r *runner) takeSnap() layerSnap {
	t := r.tr
	s := layerSnap{
		t:        r.now(),
		walBytes: t.walBytes.Load(), walSyncs: t.walSyncs.Load(), walSyncNs: t.walSyncNs.Load(),
		snapBytes: t.snapBytes.Load(),
		binRead:   t.binRead.Load(), binWrites: t.binWrites.Load(), binAcks: t.binAcks.Load(),
	}
	for _, nd := range r.dep.nodes {
		ap := nd.reg.ApplyStatus()
		s.workers += ap.Workers
		s.busy += ap.BusySeconds
		s.enqueued += ap.EnqueuedBatches
		s.applied += ap.AppliedBatches
		s.coalesced += ap.CoalescedBatches
		s.blocked += ap.BlockedEnqueues
		h, m, _ := nd.reg.CacheStatus()
		s.hits += h
		s.misses += m
		for _, st := range nd.reg.Status() {
			s.compactions += st.Compactions
			s.memElems += st.MemoryElements
			s.metrics++
		}
	}
	return s
}

// snapAt takes the counter snapshots at from and to on the run clock, in
// traced runs only.
func (r *runner) snapAt(from, to int64) {
	if r.tr == nil {
		return
	}
	r.snapDone = make(chan struct{})
	go func() {
		defer close(r.snapDone)
		for i, at := range []int64{from, to} {
			time.Sleep(time.Duration(at - r.now()))
			r.snaps[i] = r.takeSnap()
		}
	}()
}

func (r *runner) waitSnaps() {
	if r.snapDone != nil {
		<-r.snapDone
	}
}

// samplePending samples the apply backlog every 10ms over the measured
// open loop, in traced runs only.
func (r *runner) samplePending() {
	if r.tr == nil {
		return
	}
	for r.now() < r.openTo {
		if r.now() >= r.openFrom {
			var n uint64
			for _, nd := range r.dep.nodes {
				n += nd.reg.ApplyStatus().PendingBatches
			}
			r.pending = append(r.pending, float64(n))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openAcked totals what the measured open loop acknowledged.
func (r *runner) openAcked() ackTotals {
	var a ackTotals
	for _, ln := range r.lanes {
		for _, o := range ln.ops {
			due := r.openStart + o.due
			if o.failed || o.done == 0 || due < r.openFrom || due >= r.openTo {
				continue
			}
			for _, p := range o.parts {
				a.batches++
				a.values += int64(p.size)
				if o.kind == opBin {
					a.binValues += int64(p.size)
				}
			}
		}
	}
	return a
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTime is a span's duration less the part its children cover.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - time.Duration(covered)
}

func msP50(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// computeLayers derives every per-layer metric from the spans and the
// counter snapshots.
func (r *runner) computeLayers() {
	a, b := r.snaps[0], r.snaps[1]
	wall := float64(b.t-a.t) / 1e9
	L := map[string]float64{}
	L["serve.bin.acks_per_write"] = ratio(float64(b.binAcks-a.binAcks), float64(b.binWrites-a.binWrites))
	L["serve.bin.wire_bytes_per_value"] = ratio(float64(b.binRead-a.binRead), float64(r.acked.binValues))
	L["wal.batches_per_fsync"] = ratio(float64(r.acked.batches), float64(b.walSyncs-a.walSyncs))
	L["wal.fsync_busy_frac"] = ratio(float64(b.walSyncNs-a.walSyncNs)/1e9, wall)
	L["wal.bytes_per_value"] = ratio(float64(b.walBytes-a.walBytes), float64(r.acked.values))
	L["serve.apply.busy_frac"] = ratio(b.busy-a.busy, float64(b.workers)*wall)
	L["serve.apply.coalesced_ratio"] = ratio(float64(b.coalesced-a.coalesced), float64(b.applied-a.applied))
	L["serve.apply.blocked_per_kbatch"] = ratio(float64(b.blocked-a.blocked), float64(b.enqueued-a.enqueued)/1000)
	L["serve.apply.pending_p50"] = median(r.pending)
	L["serve.query.cache_hit_ratio"] = ratio(float64(b.hits-a.hits), float64(b.hits-a.hits+b.misses-a.misses))
	L["quantile.compactions_per_mvalue"] = ratio(float64(b.compactions-a.compactions), float64(r.acked.values)/1e6)
	L["quantile.memory_elements_per_metric"] = ratio(float64(b.memElems), float64(b.metrics))
	L["quantile.eps_utilisation"] = r.report.maxUtil

	spans := r.tr.snapshot()
	byParent := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	durs := map[string][]time.Duration{}
	self := map[string][]time.Duration{}
	for _, s := range spans {
		if s.Start < r.openFrom || s.Start >= r.openTo {
			continue
		}
		durs[s.Name] = append(durs[s.Name], s.dur())
		if len(byParent[s.ID]) > 0 || s.Name == "coord GET /quantile" || s.Name == "coord POST /ingest/bin" {
			self[s.Name] = append(self[s.Name], selfTime(s, byParent[s.ID]))
		}
	}
	// Every checkpoint a traced deployment wrote: the shutdowns of all but
	// the last set-up (periodic checkpoints stay out of the measured
	// phases).
	var ckDurs []time.Duration
	var ckBytes []float64
	r.tr.mu.Lock()
	for _, c := range r.tr.ckpts {
		ckDurs = append(ckDurs, time.Duration(c.end-c.start))
		ckBytes = append(ckBytes, float64(c.bytes))
	}
	r.tr.mu.Unlock()
	L["serve.checkpoint.write_ms_p50"] = msP50(ckDurs)
	L["serve.checkpoint.bytes_per_metric"] = ratio(median(ckBytes), float64(b.metrics)/float64(len(r.dep.nodes)))
	L["serve.query.server_ms_p50"] = msP50(durs["node GET /quantile"])
	L["serve.http.ingest_server_ms_p50"] = msP50(durs["node POST /ingest"])
	coordQueries := float64(len(durs["coord GET /quantile"]))
	L["cluster.pulls_per_query"] = ratio(float64(len(durs["cluster.node GET /snapshot"])), coordQueries)
	L["cluster.bytes_per_query"] = ratio(float64(b.snapBytes-a.snapBytes), coordQueries)
	L["cluster.pull_ms_p50"] = msP50(durs["cluster.node GET /snapshot"])
	L["cluster.snapshot_server_ms_p50"] = msP50(durs["node GET /snapshot"])
	L["cluster.merge_ms_p50"] = msP50(self["coord GET /quantile"])
	L["cluster.forward_ms_p50"] = msP50(self["coord POST /ingest/bin"])

	var late, measured float64
	for _, ln := range r.lanes {
		for _, o := range ln.ops {
			due := r.openStart + o.due
			if due < r.openFrom || due >= r.openTo {
				continue
			}
			measured++
			if o.sent-due > lateAfter {
				late++
			}
		}
	}
	L["driver.late_frac"] = ratio(late, measured)

	// Recovery, per set-up: WAL segments read and checkpoint reads inside
	// serve.New, summed over the nodes of one set-up.
	var replay, restore []float64
	for _, su := range spans {
		if su.Name != "setup" {
			continue
		}
		var rp, rs float64
		for _, rec := range spans {
			if rec.Name != "setup.recover" || rec.Start < su.Start || rec.End > su.End {
				continue
			}
			first, last := int64(-1), int64(-1)
			for _, s := range spans {
				if s.Start < rec.Start || s.End > rec.End {
					continue
				}
				switch s.Name {
				case "wal.segment.read":
					if first < 0 || s.Start < first {
						first = s.Start
					}
					last = max(last, s.End)
				case "checkpoint.read":
					rs += s.dur().Seconds()
				}
			}
			if first >= 0 {
				rp += float64(last-first) / 1e9
			}
		}
		replay, restore = append(replay, rp), append(restore, rs)
	}
	L["wal.replay_s"] = median(replay)
	L["serve.checkpoint.restore_s"] = median(restore)
	L["quantile.addbatch_vps"] = r.addBatchBaseline()
	r.layers = L
}

// addBatchBaseline times quantile.Concurrent.AddBatch at the deployment's
// contract on the workload's own values from one goroutine: the
// single-threaded ceiling of the apply stage.
func (r *runner) addBatchBaseline() float64 {
	c, err := quantile.NewConcurrent(quantile.ConcurrentConfig{Epsilon: defEpsilon, N: defN})
	if err != nil {
		return 0
	}
	m := r.ms[0]
	const size, total = 4096, 8 << 20
	batches := make([][]float64, total/size)
	for i := range batches {
		batches[i] = make([]float64, size)
		m.gen.fill(m.idx, int64(i*size), batches[i])
	}
	start := time.Now()
	for _, vs := range batches {
		if err := c.AddBatch(vs); err != nil {
			return 0
		}
	}
	return float64(total) / time.Since(start).Seconds()
}
