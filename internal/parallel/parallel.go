// Package parallel implements Section 4.9 of the MRL paper: the input
// stream is partitioned (statically here — each partition is a Source)
// across worker "nodes", each node runs its own sketch, and a single final
// OUTPUT phase selects quantiles from the concatenation of every node's
// final buffers. For very high degrees of parallelism a two-stage variant
// first collapses each group of node roots into a single buffer.
package parallel

import (
	"errors"
	"fmt"
	"sync"

	"mrl/internal/core"
	"mrl/internal/stream"
)

// Result carries the combined quantile answers and the accounting needed to
// reason about their quality.
type Result struct {
	// Values holds the quantile estimates, parallel to the requested phis.
	Values []float64
	// Count is the total number of elements consumed across partitions.
	Count int64
	// ErrorBound is the worst-case rank error of the combined OUTPUT:
	// core.ErrorBound, the Lemma 5 telescoping applied to the forest of
	// partition trees hanging off one virtual root.
	ErrorBound float64
	// Workers is the number of partitions processed.
	Workers int
}

// Quantiles streams each source through its own (b, k, policy) sketch on
// its own goroutine and combines the results in a final OUTPUT phase.
func Quantiles(sources []stream.Source, b, k int, policy core.Policy, phis []float64) (Result, error) {
	if len(sources) == 0 {
		return Result{}, errors.New("parallel: no sources")
	}
	sketches := make([]*core.Sketch, len(sources))
	for i := range sketches {
		s, err := core.NewSketch(b, k, policy)
		if err != nil {
			return Result{}, err
		}
		sketches[i] = s
	}
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = stream.Each(sources[i], sketches[i].Add)
		}(i)
	}
	wg.Wait()
	// Every partition ran to completion above, so report every failure —
	// each tagged with its partition index — rather than just the first.
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("partition %d: %w", i, err))
		}
	}
	if len(failed) > 0 {
		return Result{}, fmt.Errorf("parallel: %w", errors.Join(failed...))
	}
	return Combine(sketches, phis)
}

// Combine runs the final OUTPUT phase over the final buffers of
// independently built sketches: the root-concatenation step of Section 4.9,
// through core's one OUTPUT for one sketch or many. Empty sketches are
// skipped; at least one sketch must hold data.
func Combine(sketches []*core.Sketch, phis []float64) (Result, error) {
	if len(sketches) == 0 {
		return Result{}, errors.New("parallel: no sketches")
	}
	values, err := core.Quantiles(sketches, phis)
	if err != nil {
		return Result{}, err
	}
	res := Result{Values: values, ErrorBound: core.ErrorBound(sketches)}
	for _, s := range sketches {
		if s.Count() > 0 {
			res.Count += s.Count()
			res.Workers++
		}
	}
	return res, nil
}

// TwoStage is the high-parallelism variant of Section 4.9: node roots are
// grouped, each group's buffers collapse into one summary buffer of
// groupKeep elements, and the final OUTPUT runs over the group summaries.
// A final-stage answer's position in the one-stage merge of every node's
// buffers is off by less than the summaries' slot weights plus the heaviest
// one, so the returned ErrorBound is the one-stage bound plus twice each
// summary's slot weight.
func TwoStage(sketches []*core.Sketch, groupSize, groupKeep int, phis []float64) (Result, error) {
	if len(sketches) == 0 {
		return Result{}, errors.New("parallel: no sketches")
	}
	if groupSize < 1 {
		return Result{}, fmt.Errorf("parallel: group size %d must be positive", groupSize)
	}
	if groupKeep < 1 {
		return Result{}, fmt.Errorf("parallel: group keep %d must be positive", groupKeep)
	}
	var summaries []core.Weighted
	var res Result
	var lo, hi float64
	for start := 0; start < len(sketches); start += groupSize {
		group := sketches[start:min(start+groupSize, len(sketches))]
		summary, err := collapseGroup(group, groupKeep)
		if errors.Is(err, core.ErrEmpty) {
			continue
		}
		if err != nil {
			return Result{}, err
		}
		summaries = append(summaries, summary)
		res.ErrorBound += 2 * float64(summary.Weight)
		for _, s := range group {
			if s.Count() == 0 {
				continue
			}
			mn, _ := s.Min() // non-empty, so no error
			mx, _ := s.Max()
			if res.Count == 0 || mn < lo {
				lo = mn
			}
			if res.Count == 0 || mx > hi {
				hi = mx
			}
			res.Count += s.Count()
			res.Workers++
		}
	}
	if res.Count == 0 {
		return Result{}, core.ErrEmpty
	}
	values, err := core.SelectQuantiles(summaries, res.Count, lo, hi, phis)
	if err != nil {
		return Result{}, err
	}
	res.Values = values
	res.ErrorBound += core.ErrorBound(sketches)
	return res, nil
}

// collapseGroup is a COLLAPSE across a group's node roots: keep equally
// spaced answers of the group's combined OUTPUT, at positions j*w + offset
// of its merge, each standing for w = ceil(total/keep) elements.
func collapseGroup(group []*core.Sketch, keep int) (core.Weighted, error) {
	var total int64
	for _, s := range group {
		total += s.Count()
	}
	if total == 0 {
		return core.Weighted{}, core.ErrEmpty
	}
	w := (total + int64(keep) - 1) / int64(keep)
	offset := (w + 1) / 2
	phis := make([]float64, keep)
	for j := range phis {
		// Half a rank below the position, ceil(phi*total) lands on it
		// exactly whatever the float rounding.
		phis[j] = (float64(min(int64(j)*w+offset, total)) - 0.5) / float64(total)
	}
	data, err := core.Quantiles(group, phis)
	return core.Weighted{Data: data, Weight: w}, err
}

// Partition splits a materialised dataset into p contiguous chunks wrapped
// as sources, a convenience for tests and examples that simulate static
// partitioning across nodes.
func Partition(data []float64, p int) []stream.Source {
	if p < 1 {
		p = 1
	}
	if p > len(data) && len(data) > 0 {
		p = len(data)
	}
	out := make([]stream.Source, 0, p)
	per := len(data) / p
	extra := len(data) % p
	pos := 0
	for i := 0; i < p; i++ {
		sz := per
		if i < extra {
			sz++
		}
		out = append(out, stream.FromSlice(fmt.Sprintf("part-%d", i), data[pos:pos+sz]))
		pos += sz
	}
	return out
}
