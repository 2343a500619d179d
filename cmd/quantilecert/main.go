// Command quantilecert runs the guarantee-certification sweep standalone:
// every collapsing policy x arrival order x estimator stack x backend (MRL,
// KLL, weighted at unit and non-unit weights) x front-end is streamed
// against an exact oracle and both the a-priori epsilon claim (where the
// backend makes one) and the runtime ErrorBound are asserted, plus the
// metamorphic properties (permutation-invariant accounting, merge
// associativity, duplicate and affine equivariance). Failures are shrunk
// to minimal scenarios and emitted as replayable JSON certificates.
//
// Usage:
//
//	quantilecert [-seed N] [-budget small|medium|large] [-json] [-v]
//	quantilecert -replay cert.json    # re-run a certificate's minimal scenario
//	quantilecert -selftest            # verify the certifier detects injected bugs
//
// Exit status is 0 when the sweep certifies clean (or, under -replay, when
// the certificate no longer reproduces; under -selftest, when the injected
// bug was caught), 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mrl/internal/cert"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quantilecert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "sweep seed; identical seeds certify identical scenarios")
		budget   = fs.String("budget", "small", "sweep tier: small, medium or large")
		jsonOut  = fs.Bool("json", false, "emit the full result (certificates included) as JSON on stdout")
		verbose  = fs.Bool("v", false, "log one line per scenario")
		replay   = fs.String("replay", "", "replay the minimal scenario of a certificate JSON file instead of sweeping")
		selftest = fs.Bool("selftest", false, "mutation-test the certifier itself: inject a bound bug and require a shrunk certificate")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	b, err := cert.ParseBudget(*budget)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	opts := cert.Options{Seed: *seed, Budget: b}
	if *verbose {
		opts.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}

	if *replay != "" {
		return runReplay(*replay, opts, stdout, stderr)
	}
	if *selftest {
		return runSelftest(opts, stdout, stderr)
	}

	res, err := cert.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		fmt.Fprintln(stdout, res.Summary())
		for _, ct := range res.Certificates {
			js, err := ct.MarshalIndent()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "certificate (minimal reproducer %s):\n%s\n", ct.Minimal.Name(), js)
		}
		for _, e := range res.Errors {
			fmt.Fprintln(stdout, "error:", e)
		}
	}
	if !res.OK() {
		return 1
	}
	return 0
}

// runReplay re-checks a certificate's minimal scenario. Exit 0 means the
// violation no longer reproduces (the bug is fixed); exit 1 means it still
// fails (or the certificate cannot be read).
func runReplay(path string, opts cert.Options, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ct, err := cert.ParseCertificate(data)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	out, err := cert.NewCertifier(opts).Replay(ct)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(out.Violations) == 0 {
		fmt.Fprintf(stdout, "FIXED: %s no longer violates (ran %d checks)\n", ct.Minimal.Name(), out.Checks)
		return 0
	}
	fmt.Fprintf(stdout, "REPRODUCED: %s\n", ct.Minimal.Name())
	for _, v := range out.Violations {
		fmt.Fprintln(stdout, " ", v)
	}
	return 1
}

// runSelftest mutation-tests the certifier: it corrupts three narrow
// slices of the sweep's estimates — the MRL sketch axis, the KLL backend
// axis, and the multi-node cluster axis — and requires the sweep to detect
// all of them, shrink them, and produce certificates that replay to
// failing outcomes. Exit 0 means the certifier works.
func runSelftest(opts cert.Options, stdout, stderr io.Writer) int {
	opts.Corrupt = func(sc cert.Scenario, estimates []float64) {
		if sc.Mode != "" || sc.Sampled || sc.Order != "sorted" {
			return
		}
		sketchAxis := sc.Estimator == cert.EstimatorSketch && (sc.Backend == "" || sc.Backend == "kll")
		clusterAxis := sc.Estimator == cert.EstimatorCluster && sc.Backend == ""
		if sketchAxis || clusterAxis {
			for i := range estimates {
				estimates[i] += 1e9
			}
		}
	}
	c := cert.NewCertifier(opts)
	res, err := c.Run()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(res.Certificates) == 0 {
		fmt.Fprintln(stdout, "SELFTEST FAIL: injected estimator bug went undetected")
		return 1
	}
	caught := map[string]bool{}
	caughtCluster := false
	for _, ct := range res.Certificates {
		if ct.ShrinkSteps == 0 || len(ct.Outcome.Violations) == 0 {
			fmt.Fprintf(stdout, "SELFTEST FAIL: certificate for %s was not shrunk to a failing reproducer\n", ct.Original.Name())
			return 1
		}
		replayed, err := c.Replay(ct)
		if err != nil || len(replayed.Violations) == 0 {
			fmt.Fprintf(stdout, "SELFTEST FAIL: certificate for %s did not replay to a failing outcome (err=%v)\n", ct.Original.Name(), err)
			return 1
		}
		if ct.Minimal.Estimator == cert.EstimatorCluster {
			caughtCluster = true
		} else {
			caught[ct.Minimal.Backend] = true
		}
	}
	if !caught[""] && !caught["mrl"] {
		fmt.Fprintln(stdout, "SELFTEST FAIL: injected MRL bug produced no certificate")
		return 1
	}
	if !caught["kll"] {
		fmt.Fprintln(stdout, "SELFTEST FAIL: injected KLL bound bug produced no certificate")
		return 1
	}
	if !caughtCluster {
		fmt.Fprintln(stdout, "SELFTEST FAIL: injected cluster merge bug produced no certificate")
		return 1
	}
	fmt.Fprintf(stdout, "SELFTEST PASS: injected bugs detected in %d scenario(s) across the mrl, kll and cluster axes, shrunk to minimal reproducers (e.g. %s)\n",
		len(res.Certificates), res.Certificates[0].Minimal.Name())
	return 0
}
