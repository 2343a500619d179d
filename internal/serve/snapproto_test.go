package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"mrl/quantile"
)

// testSnapshotParts snapshots three summaries, each over a third of one
// stream, as a coordinator collects them from three nodes.
func testSnapshotParts(t *testing.T) []quantile.EstimatorSnapshot {
	t.Helper()
	vs := make([]float64, 2000)
	for i := range vs {
		vs[i] = float64((i*7919)%2000 + 1)
	}
	parts := make([]quantile.EstimatorSnapshot, 3)
	for i := range parts {
		e, err := quantile.NewEstimator(quantile.BackendMRL, quantile.Config{Epsilon: 0.01, N: 10_000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddBatch(vs[i*len(vs)/3 : (i+1)*len(vs)/3]); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = quantile.SnapshotEstimator(e); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

func TestSnapshotDocRoundTrip(t *testing.T) {
	parts := testSnapshotParts(t)
	doc, err := EncodeSnapshot(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("decoded %d parts, want %d", len(got), len(parts))
	}
	for i := range parts {
		if got[i].Backend != parts[i].Backend || got[i].Count != parts[i].Count || !bytes.Equal(got[i].Blob, parts[i].Blob) {
			t.Fatalf("part %d round-trip mismatch", i)
		}
	}
	redoc, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, redoc) {
		t.Fatal("decode→re-encode is not bit-exact")
	}

	// The empty document — an alive node with no data — is the bare prologue.
	empty, err := EncodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != snapPrologueLen {
		t.Fatalf("empty doc is %d bytes, want %d", len(empty), snapPrologueLen)
	}
	if parts, err := DecodeSnapshot(empty); err != nil || len(parts) != 0 {
		t.Fatalf("empty doc decode = (%v, %v), want (0 parts, nil)", parts, err)
	}
}

func TestSnapshotDocRejectsCorruption(t *testing.T) {
	doc, err := EncodeSnapshot(testSnapshotParts(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":      func(b []byte) []byte { b[4] = 9; return b },
		"dirty prologue":   func(b []byte) []byte { b[6] = 1; return b },
		"flipped payload":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)-3] },
		"trailing garbage": func(b []byte) []byte { return append(b, 0xde, 0xad) },
	}
	for name, corrupt := range cases {
		mut := corrupt(append([]byte(nil), doc...))
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("%s: decode accepted corrupted document", name)
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: error %v is not ErrBadFrame", name, err)
		}
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	reg, err := NewRegistry(Config{Epsilon: 0.01, N: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Fatal(err)
		}
	}()
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if err := reg.Ingest("lat", vs); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/snapshot?metric=lat", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /snapshot = %d: %s", rr.Code, rr.Body.String())
	}
	parts, err := DecodeSnapshot(rr.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range parts {
		total += p.Count
	}
	if total != int64(len(vs)) {
		t.Fatalf("snapshot covers %d elements, want %d", total, len(vs))
	}
	values, bound, count, err := quantile.CombineEstimatorSnapshots(parts, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if count != int64(len(vs)) || bound <= 0 {
		t.Fatalf("combine = (count %d, bound %v)", count, bound)
	}
	if mid := values[0]; mid < 500-bound || mid > 500+bound {
		t.Fatalf("median %v outside 500±%v", mid, bound)
	}

	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/snapshot?metric=nosuch", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("GET /snapshot for unknown metric = %d, want 404", rr.Code)
	}
}

func FuzzClusterSnapshotFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(AppendSnapshotPrologue(nil))
	if doc, err := EncodeSnapshot([]quantile.EstimatorSnapshot{{Backend: "mrl", Count: 3, Blob: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}); err == nil {
		f.Add(doc)
	}
	if doc, err := EncodeSnapshot([]quantile.EstimatorSnapshot{
		{Backend: "kll", Count: 1, Blob: []byte{9}},
		{Backend: "weighted", Count: 1 << 40, Blob: bytes.Repeat([]byte{0xaa}, 17)},
	}); err == nil {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := DecodeSnapshot(data) // must never panic
		if err != nil {
			return
		}
		redoc, err := EncodeSnapshot(parts)
		if err != nil {
			t.Fatalf("accepted document failed to re-encode: %v", err)
		}
		if !bytes.Equal(redoc, data) {
			t.Fatalf("accepted document is not canonical:\n in: %x\nout: %x", data, redoc)
		}
	})
}
