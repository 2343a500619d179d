package main

import (
	"fmt"
	"math"
	"sort"
)

// The exact oracle. Every value a metric was acknowledged for is
// regenerated from the seed; since they are integers, exact ranks come from
// a histogram swept forward over the metric's acknowledged batches.

// answerCheck is one served answer to verify.
type answerCheck struct {
	m        int
	phis     []float64
	a        queryAnswer
	windowed bool
	final    bool
	lo, hi   int // candidate acknowledged-batch prefixes the answer may cover
	cluster  bool
}

// contract is the a-priori guarantee: every all-time bound within eps*n
// while the metric holds at most n values.
type contract struct {
	eps float64
	n   int64
}

type checkReport struct {
	checked    int
	violations []string
	maxUtil    float64 // served bound / (eps*N), over all-time answers
}

func (r *checkReport) fail(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	} else if len(r.violations) == 20 {
		r.violations = append(r.violations, "...")
	}
}

// hist counts values in [0, domain) with per-block sums for prefix counts.
type hist struct {
	counts []int32
	blocks []int64
	total  int64
}

const histBlock = 256

func newHist(domain int) *hist {
	return &hist{counts: make([]int32, domain), blocks: make([]int64, (domain+histBlock-1)/histBlock)}
}

func (h *hist) add(vs []float64) {
	for _, v := range vs {
		i := int(v)
		h.counts[i]++
		h.blocks[i/histBlock]++
	}
	h.total += int64(len(vs))
}

// le counts values <= x.
func (h *hist) le(x float64) int64 {
	if x < 0 {
		return 0
	}
	i := int(math.Floor(x))
	if i >= len(h.counts) {
		return h.total
	}
	var n int64
	b := i / histBlock
	for _, c := range h.blocks[:b] {
		n += c
	}
	for _, c := range h.counts[b*histBlock : i+1] {
		n += int64(c)
	}
	return n
}

// lt counts values < x.
func (h *hist) lt(x float64) int64 {
	if x == math.Floor(x) {
		return h.le(x - 1)
	}
	return h.le(x)
}

// rankError is validate.Evaluate's convention: the distance from the
// target rank ceil(phi*n) to the rank interval the estimate occupies.
func rankError(phi float64, n, less, leq int64) int64 {
	target := int64(math.Ceil(phi * float64(n)))
	target = max(1, min(target, n))
	lo, hi := less+1, leq
	switch {
	case target >= lo && target <= hi:
		return 0
	case target < lo:
		if hi < lo {
			return max(0, lo-1-target)
		}
		return lo - target
	default:
		if hi < lo {
			return max(0, target-lo)
		}
		return target - hi
	}
}

// probe asks for the counts below an estimate at one prefix of the
// acknowledged batches.
type probe struct {
	prefix    int
	x         float64
	less, leq int64
}

// candidate is one reading of an answer: the batches (from, to] it covers
// and, when partial, part of batch to+1. A query may catch the batch being
// applied half-way across the metric's shards (the sketches' per-shard
// read-during-write contract); which values of it are in is unknown, so a
// partial reading is checked against the widest rank interval it allows.
type candidate struct {
	ans      *answerCheck
	from, to int
	partial  bool
	// probes index the probe list per phi: at to, at to+1 when partial,
	// and at from when from > 0.
	at, next, base []int
}

// checkMetric verifies every answer about one metric.
func checkMetric(m *metric, answers []*answerCheck, c contract, rep *checkReport) {
	var applied []batch
	for _, b := range m.batches {
		if b.ok {
			applied = append(applied, b)
		}
	}
	cum := make([]int64, len(applied)+1)
	for i, b := range applied {
		cum[i+1] = cum[i] + int64(b.size)
	}
	total := cum[len(applied)]
	var (
		probes []probe
		cands  []candidate
	)
	addProbes := func(prefix int, xs []float64) []int {
		ids := make([]int, len(xs))
		for i, x := range xs {
			ids[i] = len(probes)
			probes = append(probes, probe{prefix: prefix, x: x})
		}
		return ids
	}
	// reading finds the batches (from, to] plus part of batch to+1 that add
	// up to count, with every full batch at index >= min.
	reading := func(to int, count int64, min int) (from int, partial, ok bool) {
		if to > len(applied) {
			return 0, false, false
		}
		from = sort.Search(to+1, func(i int) bool { return cum[to]-cum[i] <= count })
		part := count - (cum[to] - cum[from])
		switch {
		case from < min:
			return 0, false, false
		case part == 0:
			return from, false, true
		case to < len(applied) && part < int64(applied[to].size):
			return from, true, true
		}
		return 0, false, false
	}
	for _, ac := range answers {
		rep.checked++
		a := ac.a
		if len(a.Values) != len(ac.phis) {
			rep.fail("%s: %d values for %d phis", m.name, len(a.Values), len(ac.phis))
			continue
		}
		if ac.cluster && (a.Partial || a.Nodes != 3) {
			rep.fail("%s: cluster answer partial=%v from %d nodes", m.name, a.Partial, a.Nodes)
			continue
		}
		var found []candidate
		if !ac.windowed {
			if ac.final && a.Count != total {
				rep.fail("%s: count %d, but %d values were acknowledged", m.name, a.Count, total)
				continue
			}
			// All-time: every batch from the first, so the reading is fixed
			// by the count.
			to := sort.Search(len(cum), func(i int) bool { return cum[i] > a.Count }) - 1
			if _, partial, ok := reading(to, a.Count, 0); ok && (ac.final || (to >= ac.lo && to+btoi(partial) <= ac.hi)) {
				found = append(found, candidate{ans: ac, to: to, partial: partial})
			} else {
				rep.fail("%s: count %d is no prefix of the acknowledged batches acknowledged before the query (%d) and sent before its answer (%d)",
					m.name, a.Count, ac.lo, ac.hi)
				continue
			}
			if a.Count <= c.n && a.ErrorBound > c.eps*float64(c.n) {
				rep.fail("%s: served bound %.1f exceeds eps*N = %.1f", m.name, a.ErrorBound, c.eps*float64(c.n))
				continue
			}
			rep.maxUtil = max(rep.maxUtil, a.ErrorBound/(c.eps*float64(c.n)))
		} else {
			// A window holds the batches applied since a rotation: a suffix
			// of the live batches ending at a prefix the query could see.
			for to := ac.lo; to <= ac.hi; to++ {
				if from, partial, ok := reading(to, a.Count, m.base); ok {
					found = append(found, candidate{ans: ac, from: from, to: to, partial: partial})
				}
			}
			if len(found) == 0 {
				rep.fail("%s: window count %d is no suffix of the batches acknowledged around the query (prefixes %d..%d)", m.name, a.Count, ac.lo, ac.hi)
				continue
			}
		}
		for _, cd := range found {
			cd.at = addProbes(cd.to, a.Values)
			if cd.partial {
				cd.next = addProbes(cd.to+1, a.Values)
			}
			if cd.from > 0 {
				cd.base = addProbes(cd.from, a.Values)
			}
			cands = append(cands, cd)
		}
	}
	if len(probes) == 0 {
		return
	}
	order := make([]int, len(probes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return probes[order[i]].prefix < probes[order[j]].prefix })
	h := newHist(m.gen.domain())
	vals := make([]float64, 0, 4096)
	done := 0
	for _, i := range order {
		pr := &probes[i]
		for ; done < pr.prefix; done++ {
			b := applied[done]
			if int(b.size) > cap(vals) {
				vals = make([]float64, b.size)
			}
			vals = vals[:b.size]
			m.gen.fill(m.idx, b.pos, vals)
			h.add(vals)
		}
		pr.less, pr.leq = h.lt(pr.x), h.le(pr.x)
	}
	// An answer passes when one of its readings is within its bound.
	passed := map[*answerCheck]bool{}
	worst := map[*answerCheck]string{}
	for _, cd := range cands {
		ac := cd.ans
		ok := true
		for k, phi := range ac.phis {
			less, leq := probes[cd.at[k]].less, probes[cd.at[k]].leq
			if cd.partial {
				leq = probes[cd.next[k]].leq
			}
			if cd.base != nil {
				less -= probes[cd.base[k]].less
				leq -= probes[cd.base[k]].leq
			}
			if e := rankError(phi, ac.a.Count, less, leq); float64(e) > ac.a.ErrorBound+1e-9 {
				ok = false
				worst[ac] = fmt.Sprintf("%s: phi %g estimate %g has rank error %d over %d values, served bound %.1f (window=%v)",
					m.name, phi, ac.a.Values[k], e, ac.a.Count, ac.a.ErrorBound, ac.windowed)
				break
			}
		}
		if ok {
			passed[ac] = true
		}
	}
	for _, cd := range cands {
		if !passed[cd.ans] {
			rep.fail("%s", worst[cd.ans])
			passed[cd.ans] = true // report each answer once
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
