// benchjson converts `go test -bench` output to a committed JSON baseline
// and gates new runs against it, with no dependency on x/perf:
//
//	go test -bench ... | benchjson parse -o results/BENCH_9.json
//	benchjson emit-text -i results/BENCH_9.json > baseline.txt   # for benchstat
//	benchjson gate -baseline results/BENCH_9.json -new new.txt \
//	    -match '^BenchmarkAdd/' -max-regress-pct 15
//
// gate compares the median ns/op of every benchmark name present in both
// files and exits 1 when any match regresses by more than the threshold,
// printing a per-benchmark report either way.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchLine is one benchmark result line. Repeated runs of the same name
// (-count=N) stay as separate lines so statistical tools keep their samples.
type BenchLine struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"nsPerOp"`
	MBPerSec    float64 `json:"mbPerSec,omitempty"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	HasMB       bool    `json:"hasMB,omitempty"`
	HasBytes    bool    `json:"hasBytes,omitempty"`
	HasAllocs   bool    `json:"hasAllocs,omitempty"`
}

// File is the committed baseline: the benchmark environment headers plus
// every result line, in input order.
type File struct {
	Headers    []string    `json:"headers"`
	Benchmarks []BenchLine `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = cmdParse(os.Args[2:])
	case "emit-text":
		err = cmdEmitText(os.Args[2:])
	case "gate":
		err = cmdGate(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson parse|emit-text|gate [flags]")
	os.Exit(2)
}

var headerRe = regexp.MustCompile(`^(goos|goarch|pkg|cpu): `)

// procsSuffix is the -N that go test appends to a benchmark name when
// GOMAXPROCS is not 1. Stripping it lets runs at any -cpu match a baseline.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func parseBench(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if headerRe.MatchString(line) {
			f.Headers = append(f.Headers, line)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := BenchLine{Name: procsSuffix.ReplaceAllString(fields[0], ""), Iters: iters}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, ok = v, true
			case "MB/s":
				b.MBPerSec, b.HasMB = v, true
			case "B/op":
				b.BytesPerOp, b.HasBytes = v, true
			case "allocs/op":
				b.AllocsPerOp, b.HasAllocs = v, true
			}
		}
		if ok {
			f.Benchmarks = append(f.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return f, nil
}

func loadJSON(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("i", "-", "input bench text (- for stdin)")
	out := fs.String("o", "-", "output JSON path (- for stdout)")
	fs.Parse(args)

	var r io.Reader = os.Stdin
	if *in != "-" {
		file, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer file.Close()
		r = file
	}
	f, err := parseBench(r)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func cmdEmitText(args []string) error {
	fs := flag.NewFlagSet("emit-text", flag.ExitOnError)
	in := fs.String("i", "", "input JSON path")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("emit-text: -i is required")
	}
	f, err := loadJSON(*in)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, h := range f.Headers {
		fmt.Fprintln(w, h)
	}
	for _, b := range f.Benchmarks {
		fmt.Fprintf(w, "%s\t%d\t%g ns/op", b.Name, b.Iters, b.NsPerOp)
		if b.HasMB {
			fmt.Fprintf(w, "\t%g MB/s", b.MBPerSec)
		}
		if b.HasBytes {
			fmt.Fprintf(w, "\t%g B/op", b.BytesPerOp)
		}
		if b.HasAllocs {
			fmt.Fprintf(w, "\t%g allocs/op", b.AllocsPerOp)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// medians collapses repeated runs per benchmark name.
func medians(f *File) map[string]float64 {
	byName := map[string][]float64{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = append(byName[b.Name], b.NsPerOp)
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			out[name] = vs[n/2]
		} else {
			out[name] = (vs[n/2-1] + vs[n/2]) / 2
		}
	}
	return out
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	basePath := fs.String("baseline", "", "committed baseline JSON")
	newPath := fs.String("new", "", "new bench text (- for stdin)")
	match := fs.String("match", ".", "regexp of benchmark names to gate")
	maxPct := fs.Float64("max-regress-pct", 15, "fail when median ns/op regresses more than this")
	fs.Parse(args)
	if *basePath == "" || *newPath == "" {
		return fmt.Errorf("gate: -baseline and -new are required")
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		return err
	}
	base, err := loadJSON(*basePath)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *newPath != "-" {
		file, err := os.Open(*newPath)
		if err != nil {
			return err
		}
		defer file.Close()
		r = file
	}
	cur, err := parseBench(r)
	if err != nil {
		return err
	}

	baseMed, curMed := medians(base), medians(cur)
	names := make([]string, 0, len(baseMed))
	for name := range baseMed {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("gate: no baseline benchmarks match %q", *match)
	}
	failed := 0
	compared := 0
	for _, name := range names {
		now, ok := curMed[name]
		if !ok {
			fmt.Printf("MISSING  %-60s baseline %.1f ns/op, not in new run\n", name, baseMed[name])
			failed++
			continue
		}
		compared++
		deltaPct := (now - baseMed[name]) / baseMed[name] * 100
		verdict := "ok      "
		if deltaPct > *maxPct {
			verdict = "REGRESS "
			failed++
		}
		fmt.Printf("%s %-60s %10.1f -> %10.1f ns/op  %+6.1f%%\n", verdict, name, baseMed[name], now, deltaPct)
	}
	fmt.Printf("gate: %d compared, %d failed (threshold +%.0f%%)\n", compared, failed, *maxPct)
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", failed, *maxPct)
	}
	return nil
}
