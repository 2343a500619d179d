package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrl/internal/cert"
)

var update = flag.Bool("update", false, "rewrite the golden files with current output")

// checkGolden compares a run's stderr followed by its stdout against
// testdata/<name>.golden, rewriting the golden under -update. The sweep is
// seeded and every stack answers deterministically, so any diff means an
// answer, a bound or the scenario list moved.
func checkGolden(t *testing.T, name string, stdout, stderr *bytes.Buffer) {
	t.Helper()
	got := append(append([]byte(nil), stderr.Bytes()...), stdout.Bytes()...)
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./cmd/quantilecert -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s; rerun with -update if the change is intended\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestRunCleanSweep: the default small sweep certifies clean with exit 0
// and a PASS summary, and its per-scenario log is pinned line for line.
func TestRunCleanSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "1", "-budget", "small", "-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s; stdout: %s", code, stderr.String(), stdout.String())
	}
	if !strings.HasPrefix(stdout.String(), "PASS") {
		t.Errorf("stdout = %q, want PASS summary", stdout.String())
	}
	checkGolden(t, "small_seed1", &stdout, &stderr)
}

// TestRunJSON: -json emits a decodable Result.
func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "1", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	var res cert.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	if res.Scenarios == 0 || res.Checks == 0 || res.Seed != 1 {
		t.Errorf("implausible result: %+v", res)
	}
}

// TestRunBadFlags: unknown budget and unparseable flags exit nonzero.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-budget", "galactic"}, &stdout, &stderr); code == 0 {
		t.Error("unknown budget accepted")
	}
	if code := run([]string{"-seed", "x"}, &stdout, &stderr); code == 0 {
		t.Error("malformed seed accepted")
	}
}

// TestRunSelftest: the built-in mutation check passes — the certifier
// detects an injected bug — and reports it on stdout; the per-scenario log
// and the reproducer it names are pinned line for line.
func TestRunSelftest(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-selftest", "-seed", "1", "-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("selftest exit %d; stdout: %s; stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "SELFTEST PASS") {
		t.Errorf("stdout = %q, want SELFTEST PASS", stdout.String())
	}
	checkGolden(t, "selftest_seed1", &stdout, &stderr)
}

// TestRunReplay exercises the full certificate lifecycle through the CLI:
// produce a certificate with an injected bug, replay it under the same
// corrupt hook semantics is impossible from the CLI (no hook), so replaying
// it against the healthy implementation must report FIXED with exit 0; a
// garbage file must exit 1.
func TestRunReplay(t *testing.T) {
	c := cert.NewCertifier(cert.Options{Corrupt: func(_ cert.Scenario, est []float64) {
		for i := range est {
			est[i] += 1e9
		}
	}})
	sc := cert.Scenario{Policy: "new", Order: "shuffled", Epsilon: 0.02, N: 1024,
		Phis: []float64{0.25, 0.5, 0.75}, Seed: 7}
	out, err := c.Check(sc)
	if err != nil || len(out.Violations) == 0 {
		t.Fatalf("setup: corrupt check gave err=%v, %d violations", err, len(out.Violations))
	}
	min, _ := c.Shrink(sc)
	minOut, err := c.Check(min)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	ct := cert.Certificate{Version: 1, Original: sc, Minimal: min, ShrinkSteps: 1, Outcome: minOut}
	js, err := ct.MarshalIndent()
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	path := filepath.Join(t.TempDir(), "cert.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatalf("setup: %v", err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay of a fixed bug exit %d; stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "FIXED") {
		t.Errorf("stdout = %q, want FIXED", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code == 0 {
		t.Error("replaying a missing file exited 0")
	}
}
