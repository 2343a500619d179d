# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover cover-gate bench bench-json bench-gate profile reproduce examples clean check vet fmtcheck fuzz-smoke crashtest cert-smoke chaos cluster-smoke perfbench

all: build test

# check is the CI / pre-merge gate: build, vet, formatting, tests, and the
# race detector over the concurrent packages.
check: build vet fmtcheck test race

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/parallel/ ./internal/core/ ./quantile/ ./internal/window/ ./internal/serve/ ./internal/wal/ ./internal/faultfs/ ./internal/faultnet/ ./internal/cluster/

# crashtest runs the fault-injection harness under the race detector: seeded
# kill-and-restart lives (ENOSPC, short writes, failed fsyncs, hard crashes)
# plus the degraded-mode lifecycle.
crashtest:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryNoAckedLoss|TestDegradedModeServing|TestCheckpointDurableUnderCrash|TestWALRecoveryRealFS' ./internal/serve/

# chaos runs the exactly-once binary-ingest harnesses under the race
# detector: TestChaosExactlyOnce (each seed an independent deterministic
# schedule of network faults, hard server kills with torn-page power loss,
# and graceful restarts, with a retrying sessioned client streaming
# throughout), TestChaosKillWithBacklog (kills landing while acked batches
# are still queued in the async apply pipeline, unapplied), and the cluster
# rows: TestChaosClusterShardKillExactlyOnce (shard nodes hard-killed
# mid-stream under sessioned clients, verified through a fresh coordinator)
# and TestChaosClusterQueryDegraded (the partial-answer degradation
# contract under seeded node deaths). The differential proof per seed: the
# recovered state holds every acknowledged value exactly once.
CHAOS_SEEDS ?= 40
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -run 'TestChaos' ./internal/serve/ ./internal/cluster/

# fuzz-smoke gives every fuzz target a short budget; CI runs it after check.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSketchVsExact      -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalBinary    -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzRadixSortVsStdlib  -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzCombine            -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzCollapse           -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzConcurrentAdd      -fuzztime=$(FUZZTIME) ./quantile/
	$(GO) test -run='^$$' -fuzz=FuzzSketchBinaryRoundTrip -fuzztime=$(FUZZTIME) ./quantile/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay             -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzBinaryFile            -fuzztime=$(FUZZTIME) ./internal/stream/
	$(GO) test -run='^$$' -fuzz=FuzzKLLBinaryRoundTrip      -fuzztime=$(FUZZTIME) ./internal/kll/
	$(GO) test -run='^$$' -fuzz=FuzzWeightedBinaryRoundTrip -fuzztime=$(FUZZTIME) ./internal/weighted/
	$(GO) test -run='^$$' -fuzz=FuzzBinaryIngestFrame       -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzSplitBinBody            -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzClusterSnapshotFrame    -fuzztime=$(FUZZTIME) ./internal/serve/

# cert-smoke runs the guarantee-certification sweep at the CI budget: every
# policy x order x estimator stack x backend (mrl, kll, weighted) x
# front-end (including the multi-node cluster axis) is checked against the
# exact oracle, and the certifier's own detection machinery is
# mutation-tested — on the mrl, kll and cluster axes — via -selftest.
cert-smoke:
	$(GO) run ./cmd/quantilecert -seed 1 -budget small
	$(GO) run ./cmd/quantilecert -seed 1 -budget small -selftest

# cluster-smoke is the end-to-end sharded-cluster smoke: 3 storage nodes +
# a scatter/gather coordinator, quantileload spreading sessioned binary
# ingest across all nodes, and a certified (bounded, non-partial) merged
# answer from the coordinator.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# perfbench runs the end-to-end benchmark on the mixed and cluster
# workloads for its correctness verdict: every served answer is checked
# against an exact oracle, and any violation or failed operation exits 1.
# The performance numbers it prints carry no bound here.
perfbench:
	bash perfbench/run.sh --workload mixed --seconds 20
	bash perfbench/run.sh --workload cluster --seconds 20

cover:
	$(GO) test -cover ./...

# cover-gate enforces statement-coverage floors on the guarantee-critical
# packages. Floors sit a few points under current coverage (core 94%,
# cert 80%, kll 92%, weighted 90%) so incidental drift passes but a dropped
# test layer fails.
COVER_FLOOR_CORE ?= 90
COVER_FLOOR_CERT ?= 75
COVER_FLOOR_KLL ?= 85
COVER_FLOOR_WEIGHTED ?= 85
cover-gate:
	@set -e; for spec in "./internal/core/:$(COVER_FLOOR_CORE)" "./internal/cert/:$(COVER_FLOOR_CERT)" "./internal/kll/:$(COVER_FLOOR_KLL)" "./internal/weighted/:$(COVER_FLOOR_WEIGHTED)"; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover-gate: no coverage figure for $$pkg"; exit 1; fi; \
		echo "cover-gate: $$pkg $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p=$$pct -v f=$$floor 'BEGIN{print (p>=f)?1:0}')" != "1" ]; then \
			echo "cover-gate: $$pkg coverage $$pct% fell below floor $$floor%"; exit 1; fi; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# The gated hot-path benchmarks: 6 samples each so the gate compares medians.
BENCH_GATED = BenchmarkAdd$$|BenchmarkAddBatch$$|BenchmarkQuantiles$$|BenchmarkHTTPIngest$$|BenchmarkHTTPIngestBinary$$|BenchmarkRecoveryReplay$$
BENCH_COUNT ?= 6

# The packages whose hot paths the bench gate tracks: the MRL core, the
# KLL backend (its sub-benchmarks carry a kll/ prefix, so names never clash),
# and the serve ingest carriers (JSON vs binary) plus WAL-replay recovery.
BENCH_PKGS = ./internal/core/ ./internal/kll/ ./internal/serve/

# bench-json refreshes the committed perf baseline results/BENCH_9.json.
bench-json:
	mkdir -p results
	$(GO) test -run='^$$' -bench='$(BENCH_GATED)' -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson parse -o results/BENCH_9.json
	@echo "wrote results/BENCH_9.json"

# bench-gate re-runs the gated benchmarks and fails on a >15% median ns/op
# regression against the committed baseline (same check CI runs).
bench-gate:
	$(GO) test -run='^$$' -bench='$(BENCH_GATED)' -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) > /tmp/bench_new.txt
	$(GO) run ./cmd/benchjson gate -baseline results/BENCH_9.json -new /tmp/bench_new.txt \
		-match '^Benchmark(Add|AddBatch|Quantiles|HTTPIngest|HTTPIngestBinary)/|^BenchmarkRecoveryReplay' -max-regress-pct 15

# profile captures CPU and allocation pprof profiles of the binary ingest
# hot path (frame decode -> WAL append -> apply-queue handoff -> sketch) into
# results/; inspect with `go tool pprof results/ingest_cpu.pprof`.
profile:
	mkdir -p results
	$(GO) test -run='^$$' -bench='BenchmarkHTTPIngestBinary$$' -benchtime=3s \
		-cpuprofile results/ingest_cpu.pprof -memprofile results/ingest_mem.pprof \
		-o results/serve_bench.test ./internal/serve/
	@echo "wrote results/ingest_cpu.pprof results/ingest_mem.pprof (binary: results/serve_bench.test)"

# Regenerate every table and figure of the paper into results/.
reproduce:
	mkdir -p results
	$(GO) run ./cmd/tables -table 1   > results/table1.txt
	$(GO) run ./cmd/tables -table 2   > results/table2.txt
	$(GO) run ./cmd/simulate          > results/table3.txt
	$(GO) run ./cmd/figures -figure 2 > results/figure2.txt
	$(GO) run ./cmd/figures -figure 3 > results/figure3.txt
	$(GO) run ./cmd/figures -figure 4 > results/figure4.txt
	$(GO) run ./cmd/figures -figure 7 > results/figure7.txt
	$(GO) run ./cmd/figures -figure 8 > results/figure8.txt
	$(GO) run ./cmd/sweep -n 1e6      > results/sweep.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/histogram
	$(GO) run ./examples/partitioner
	$(GO) run ./examples/parallel
	$(GO) run ./examples/concurrent
	$(GO) run ./examples/groupby
	$(GO) run ./examples/multicolumn
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/quantiled

clean:
	rm -f test_output.txt bench_output.txt
