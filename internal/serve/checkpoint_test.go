package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mrl/internal/core"
	"mrl/quantile"
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
// restored data plus live data writes a single summary per metric (none for
// an empty one), so checkpoints do not grow across restarts.
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
	if err := gen2.Ensure("idle"); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := gen2.WriteCheckpoint(&second, 0); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBlobCounts(t, second.Bytes()); len(got) != 2 || got["m"] != 1 || got["idle"] != 0 {
		t.Fatalf("checkpoint blobs per metric %v, want m:1 idle:0", got)
	}

	gen3, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen3.Restore(bytes.NewReader(second.Bytes())); err != nil {
		t.Fatal(err)
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

// TestRestoreIntoLiveSummary pins how Restore treats each metric: the first
// blob becomes the live summary of an empty metric whatever its geometry,
// further blobs and restores onto live data absorb into it, and blobs that
// cannot absorb into each other refuse the checkpoint, naming the metric and
// both geometries.
func TestRestoreIntoLiveSummary(t *testing.T) {
	narrow, err := quantile.New(quantile.Config{Epsilon: 0.05, N: 4000})
	if err != nil {
		t.Fatal(err)
	}
	data := permutation(6000)
	if err := narrow.AddBatch(data[:3000]); err != nil {
		t.Fatal(err)
	}
	narrowBlob, err := narrow.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// A checkpoint written under another contract is adopted as is.
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Restore(bytes.NewReader(encodeTestCheckpoint(t, "m", narrowBlob))); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest("m", data[3000:]); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Quantiles("m", []float64{0.1, 0.5, 0.9}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(data)) {
		t.Fatalf("adopted count %d, want %d", res.Count, len(data))
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	checkWithinBound(t, sorted, []float64{0.1, 0.5, 0.9}, res.Values, res.ErrorBound, "adopted")

	// A second restore of the same geometry onto live data absorbs into it.
	if _, err := reg.Restore(bytes.NewReader(encodeTestCheckpoint(t, "m", narrowBlob))); err != nil {
		t.Fatal(err)
	}
	if st := reg.Status()[0]; st.Count != int64(len(data))+3000 || st.RestoredCount != 6000 {
		t.Fatalf("after absorbing a second restore: count %d restored %d", st.Count, st.RestoredCount)
	}

	// Summaries of two geometries cannot absorb into each other: a
	// checkpoint carrying both for one metric is refused, and so is a
	// restore of a foreign geometry onto live data.
	wide, err := quantile.New(quantile.Config{Epsilon: 0.001, N: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	wideBlob, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.Restore(bytes.NewReader(encodeTestCheckpoint(t, "m", narrowBlob, wideBlob)))
	if err == nil {
		t.Fatal("checkpoint with uncombinable blobs restored")
	}
	for _, want := range []string{`"m"`, geometry(t, narrowBlob), geometry(t, wideBlob)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %s", err, want)
		}
	}
	if _, err := reg.Restore(bytes.NewReader(encodeTestCheckpoint(t, "m", wideBlob))); err == nil {
		t.Fatal("foreign geometry absorbed into live data")
	}
}

// encodeTestCheckpoint lays out a v4 checkpoint holding one MRL metric with
// the given blobs, no sessions and WAL position 0.
func encodeTestCheckpoint(t *testing.T, name string, blobs ...[]byte) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(ckptMagic)
	b.WriteByte(ckptVersion)
	le := func(v any) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	le(uint64(0))
	le(uint32(1))
	le(uint16(len(name)))
	b.WriteString(name)
	b.WriteByte(byte(len(quantile.BackendMRL)))
	b.WriteString(string(quantile.BackendMRL))
	le(uint32(len(blobs)))
	for _, blob := range blobs {
		le(uint32(len(blob)))
		b.Write(blob)
	}
	le(uint32(0))
	return b.Bytes()
}

// checkpointBlobCounts reads the blob count of every metric in a checkpoint.
func checkpointBlobCounts(t *testing.T, data []byte) map[string]uint32 {
	t.Helper()
	r := bytes.NewReader(data[len(ckptMagic)+1+8:])
	le := func(v any) {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	var metrics uint32
	le(&metrics)
	out := make(map[string]uint32)
	for i := uint32(0); i < metrics; i++ {
		var nameLen uint16
		le(&nameLen)
		name := make([]byte, nameLen)
		le(name)
		tagLen, err := r.ReadByte()
		if err != nil {
			t.Fatal(err)
		}
		le(make([]byte, tagLen))
		var blobs uint32
		le(&blobs)
		out[string(name)] = blobs
		for j := uint32(0); j < blobs; j++ {
			var blobLen uint32
			le(&blobLen)
			le(make([]byte, blobLen))
		}
	}
	return out
}

// geometry renders an MRL blob's buffer geometry the way refusals name it.
func geometry(t *testing.T, blob []byte) string {
	t.Helper()
	var sk core.Sketch
	if err := sk.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("b=%d k=%d", sk.B(), sk.K())
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
