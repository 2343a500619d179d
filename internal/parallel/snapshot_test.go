package parallel

import (
	"math"
	"strings"
	"testing"

	"mrl/internal/core"
	"mrl/internal/stream"
)

// TestCombineSnapshotsMatchesCombine: combining frozen copies (core.Sketch
// Clones, what a caller that cannot hold its sketches still combines) gives
// exactly the result of combining the sketches directly.
func TestCombineSnapshotsMatchesCombine(t *testing.T) {
	data := shuffledData(20000, 11)
	phis := []float64{0, 0.1, 0.5, 0.9, 1}
	sketches := make([]*core.Sketch, 4)
	parts := Partition(data, len(sketches))
	for i := range sketches {
		s, err := core.NewSketch(5, 64, core.PolicyNew)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Each(parts[i], s.Add); err != nil {
			t.Fatal(err)
		}
		sketches[i] = s
	}
	direct, err := Combine(sketches, phis)
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*core.Sketch, len(sketches))
	for i, s := range sketches {
		clones[i] = s.Clone()
	}
	frozen, err := Combine(clones, phis)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Count != direct.Count || frozen.Workers != direct.Workers ||
		frozen.ErrorBound != direct.ErrorBound {
		t.Fatalf("clone combine %+v != direct %+v", frozen, direct)
	}
	for i := range phis {
		if frozen.Values[i] != direct.Values[i] {
			t.Fatalf("phi=%v: %v != %v", phis[i], frozen.Values[i], direct.Values[i])
		}
	}
	if direct.Values[0] != 1 || direct.Values[len(phis)-1] != 20000 {
		t.Fatalf("phi 0 and 1 answered %v and %v, want the exact extremes 1 and 20000", direct.Values[0], direct.Values[len(phis)-1])
	}
	if got := core.ErrorBound(sketches); got != direct.ErrorBound {
		t.Fatalf("core.ErrorBound = %v, want %v", got, direct.ErrorBound)
	}
}

// TestCombinedBoundChargesAbsorbs: a combine never certifies less than its
// parts certify themselves. A one-part combine of a sketch that absorbed
// three others must carry the sketch's own Absorbs/2 charge.
func TestCombinedBoundChargesAbsorbs(t *testing.T) {
	s, err := core.NewSketch(5, 64, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSlice(shuffledData(3000, 14)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		o, err := core.NewSketch(5, 64, core.PolicyNew)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.AddSlice(shuffledData(3000, 15+i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Absorb(o); err != nil {
			t.Fatal(err)
		}
	}
	own := s.ErrorBound()
	res, err := Combine([]*core.Sketch{s}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound < own {
		t.Fatalf("Combine bound = %v, below the part's own ErrorBound %v", res.ErrorBound, own)
	}
}

// TestSnapshotIsFrozen: a clone must stay valid and unchanged while the
// source sketch keeps absorbing input — the property concurrent readers
// depend on.
func TestSnapshotIsFrozen(t *testing.T) {
	s, err := core.NewSketch(4, 32, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSlice(shuffledData(5000, 12)); err != nil {
		t.Fatal(err)
	}
	snap := s.Clone()
	before, err := Combine([]*core.Sketch{snap}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Keep feeding the live sketch; the frozen copy must not move.
	if err := s.AddSlice(shuffledData(5000, 13)); err != nil {
		t.Fatal(err)
	}
	after, err := Combine([]*core.Sketch{snap}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if before.Values[0] != after.Values[0] || before.Count != after.Count ||
		before.ErrorBound != after.ErrorBound {
		t.Fatalf("clone drifted: before %+v, after %+v", before, after)
	}
}

// TestSnapEmptySketch: an empty sketch is skipped by the combiner, and a
// combine of empty sketches only is ErrEmpty.
func TestSnapEmptySketch(t *testing.T) {
	empty, err := core.NewSketch(3, 8, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewSketch(3, 8, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.AddSlice([]float64{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := Combine([]*core.Sketch{empty, full}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 || res.Count != 3 || res.Values[0] != 2 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := Combine([]*core.Sketch{empty.Clone()}, []float64{0.5}); err != core.ErrEmpty {
		t.Fatalf("all-empty combine: err = %v, want ErrEmpty", err)
	}
}

// TestQuantilesReportsAllPartitionErrors: when several sources fail, every
// failure must surface, each tagged with its partition index.
func TestQuantilesReportsAllPartitionErrors(t *testing.T) {
	sources := []stream.Source{
		stream.FromSlice("bad-0", []float64{1, math.NaN()}),
		stream.FromSlice("ok-1", []float64{2, 3}),
		stream.FromSlice("bad-2", []float64{math.NaN()}),
	}
	_, err := Quantiles(sources, 3, 4, core.PolicyNew, []float64{0.5})
	if err == nil {
		t.Fatal("Quantiles accepted NaN partitions")
	}
	msg := err.Error()
	for _, want := range []string{"partition 0", "partition 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not report %q", msg, want)
		}
	}
	if strings.Contains(msg, "partition 1") {
		t.Errorf("error %q blames the healthy partition 1", msg)
	}
}

// TestQuantilesSingleErrorKeepsIndex: the single-failure message still names
// the offending partition.
func TestQuantilesSingleErrorKeepsIndex(t *testing.T) {
	sources := []stream.Source{
		stream.FromSlice("ok-0", []float64{1, 2}),
		stream.FromSlice("bad-1", []float64{math.NaN()}),
	}
	_, err := Quantiles(sources, 3, 4, core.PolicyNew, []float64{0.5})
	if err == nil || !strings.Contains(err.Error(), "partition 1") {
		t.Fatalf("err = %v, want partition 1 named", err)
	}
}
