package serve

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]float64{
		"lat": permutation(20_000),
		"rps": permutation(5_000),
	}
	for name, vs := range streams {
		if err := reg.Ingest(name, vs); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteCheckpoint(&buf, 42); err != nil {
		t.Fatal(err)
	}

	restored, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	walSeq, err := restored.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if walSeq != 42 {
		t.Fatalf("restored walSeq %d, want 42", walSeq)
	}
	if got := restored.Names(); len(got) != 2 {
		t.Fatalf("restored metrics %v", got)
	}
	phis := []float64{0.1, 0.5, 0.9}
	for name, vs := range streams {
		res, err := restored.Quantiles(name, phis, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(len(vs)) {
			t.Fatalf("%s: restored count %d, want %d", name, res.Count, len(vs))
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		checkWithinBound(t, sorted, phis, res.Values, res.ErrorBound, name)
	}
	// Windows are ephemeral by design: not restored.
	if st := restored.Status()[0]; st.Window.Count != 0 || st.RestoredCount != st.Count {
		t.Fatalf("restored status %+v", st)
	}
}

// TestCheckpointMergesBaselines: checkpointing a registry that itself holds
// a restored baseline plus live data merges both into a single summary per
// metric (same geometry), so checkpoints do not grow across restarts.
func TestCheckpointMergesBaselines(t *testing.T) {
	cfg := testConfig()
	gen1, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := permutation(12_000)
	if err := gen1.Ingest("m", data[:6000]); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := gen1.WriteCheckpoint(&first, 0); err != nil {
		t.Fatal(err)
	}

	gen2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen2.Restore(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := gen2.Ingest("m", data[6000:]); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := gen2.WriteCheckpoint(&second, 0); err != nil {
		t.Fatal(err)
	}

	gen3, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen3.Restore(bytes.NewReader(second.Bytes())); err != nil {
		t.Fatal(err)
	}
	m := gen3.get("m")
	if m == nil {
		t.Fatal("metric missing after restore")
	}
	if got := len(m.snapshotRestored()); got != 1 {
		t.Fatalf("checkpoint carried %d blobs for one metric, want 1 (merged)", got)
	}
	res, err := gen3.Quantiles("m", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(data)) {
		t.Fatalf("merged count %d, want %d", res.Count, len(data))
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	checkWithinBound(t, sorted, []float64{0.5}, res.Values, res.ErrorBound, "merged")
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest("m", permutation(2000)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteCheckpoint(&buf, 42); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	fresh := func() *Registry {
		r, err := NewRegistry(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if _, err := fresh().Restore(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{0, 3, 5, len(blob) / 2, len(blob) - 1} {
		if _, err := fresh().Restore(bytes.NewReader(blob[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := fresh().Restore(bytes.NewReader(append(append([]byte(nil), blob...), 0))); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Any version but the current one is rejected before anything is
	// restored, not misparsed: the older layouts and a future bump alike.
	for _, version := range []byte{1, 2, 3, ckptVersion + 1} {
		bad := append([]byte(nil), blob...)
		bad[4] = version
		r := fresh()
		_, err := r.Restore(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version") {
			t.Errorf("version %d: err = %v, want unsupported checkpoint version", version, err)
		}
		if r.Len() != 0 {
			t.Errorf("version %d: rejected checkpoint created %d metrics", version, r.Len())
		}
	}
}

func TestSaveCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadCheckpoint(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: %v", err)
	}
	if err := reg.Ingest("m", permutation(1000)); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveCheckpoint(path); err != nil {
		t.Fatal(err) // overwrite via rename must succeed
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	other, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if res, err := other.Quantiles("m", []float64{0.5}, false); err != nil || res.Count != 1000 {
		t.Fatalf("restored from file: %v %+v", err, res)
	}
}
