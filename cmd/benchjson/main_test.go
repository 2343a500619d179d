package main

import (
	"strings"
	"testing"
)

// TestParseBenchStripsProcsSuffix: a name parses the same with and without
// the -N suffix go test adds when GOMAXPROCS > 1, so a run at any -cpu
// matches the baseline's names.
func TestParseBenchStripsProcsSuffix(t *testing.T) {
	const in = `goos: linux
cpu: Example CPU
BenchmarkAdd/new/b=5/k=64-2         	 1000000	        12.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkAdd/new/b=5/k=64           	 1000000	        11.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkRecoveryReplay-16          	      10	   1500000 ns/op	  64.00 MB/s
BenchmarkQuantiles/q=100            	   50000	      2500 ns/op
PASS
`
	f, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []BenchLine{
		{Name: "BenchmarkAdd/new/b=5/k=64", Iters: 1000000, NsPerOp: 12.5, HasBytes: true, HasAllocs: true},
		{Name: "BenchmarkAdd/new/b=5/k=64", Iters: 1000000, NsPerOp: 11.5, HasBytes: true, HasAllocs: true},
		{Name: "BenchmarkRecoveryReplay", Iters: 10, NsPerOp: 1500000, MBPerSec: 64, HasMB: true},
		{Name: "BenchmarkQuantiles/q=100", Iters: 50000, NsPerOp: 2500},
	}
	if len(f.Headers) != 2 {
		t.Errorf("headers %q, want goos and cpu", f.Headers)
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("parsed %d lines, want %d: %+v", len(f.Benchmarks), len(want), f.Benchmarks)
	}
	for i, b := range f.Benchmarks {
		if b != want[i] {
			t.Errorf("line %d: %+v, want %+v", i, b, want[i])
		}
	}
	if med := medians(f); len(med) != 3 || med["BenchmarkAdd/new/b=5/k=64"] != 12 {
		t.Errorf("medians %v, want the suffixed and bare Add runs pooled (12 ns/op)", med)
	}
}
