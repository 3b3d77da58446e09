GO ?= go
SHA ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo local)

# Perf-regression gate policy; keep in sync with the bench-gate step in
# .github/workflows/ci.yml. GATE is the default allowed regression in
# percent (generous: bench-record runs -benchtime 1x -count 3 on shared
# runners). GATE_MIN_NS is the noise floor — benchmarks measuring below
# it are timer jitter at 1x benchtime and are not gated. GATE_OVERRIDES
# tightens stable ms-scale benchmarks and loosens the noise-prone
# concurrency/network ones.
GATE ?= 25
GATE_MIN_NS ?= 100000
GATE_OVERRIDES ?= BenchmarkHistoryTopN=15,BenchmarkConcurrentExec=50,BenchmarkE8UDPStream=50,BenchmarkE8UDPStreamBatched=50,BenchmarkPeakRSS=60,BenchmarkMetricsOverhead=15,BenchmarkSharedWork=50

# Pinned static-analysis tool versions; keep in sync with the lint job
# in .github/workflows/ci.yml.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: verify fmt vet build test race lint stethovet docscheck bench bench-smoke bench-module bench-record examples

verify: fmt vet build test race bench-smoke bench-module

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race mirrors the CI race job: the whole tree under the race detector,
# including the 32-goroutine mixed-workload stress test.
race:
	$(GO) test -race ./...

# lint mirrors the CI lint job: staticcheck + govulncheck at pinned
# versions (fetches the tools on first use; not part of verify so
# offline verification keeps working), then stethovet — the project's
# own invariant analyzers (cmd/stethovet; in-tree, needs no network),
# over the root module and over bench/ — and docscheck, which fails the run when README/DESIGN/ARCHITECTURE
# reference identifiers or paths that no longer exist in the tree.
# staticcheck reads staticcheck.conf at the repo root.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...
	$(GO) run ./cmd/stethovet ./...
	$(GO) run -C bench stethoscope/cmd/stethovet ./...
	$(GO) run ./cmd/docscheck

# stethovet alone: the in-tree analyzers work offline, so they can run
# even where the pinned external tools cannot be fetched. bench/ is a
# module of its own that ./... does not reach, so it is linted from
# its own directory.
stethovet:
	$(GO) run ./cmd/stethovet ./...
	$(GO) run -C bench stethoscope/cmd/stethovet ./...

# docscheck alone: the documentation linter (in-tree, offline).
docscheck:
	$(GO) run ./cmd/docscheck

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-smoke mirrors the CI bench-smoke job: every benchmark executes
# at least once, with tests excluded.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-module mirrors the CI verify job's last step: bench/ is a module
# of its own (replace stethoscope => ../) that ./... never reaches, so
# an internal-API change that breaks the benchmark fails here.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# bench-record mirrors the CI bench-record job: the experiment
# benchmarks, the compile path (optimizer pipeline, mitosis sweep) and
# the plan's picture formats (dot, trace load, time to picture, repaint),
# 3 repetitions with allocation counts (-benchmem), converted to
# BENCH_<sha>.json. When a
# previous artifact is saved as BENCH_baseline.json, a per-benchmark
# delta summary is printed and then ENFORCED: any benchmark more than
# GATE percent slower than the baseline fails the target (benchjson
# -gate), unless the HEAD commit message contains [bench-skip]. Without
# a baseline both the summary and the gate are skipped. The bench run
# writes to bench.txt in its own command (not a pipe): POSIX sh has no
# pipefail, and a crashed benchmark must fail the target instead of
# gating a truncated record.
bench-record:
	$(GO) test -bench 'BenchmarkF|BenchmarkE|BenchmarkPlanCacheHit|BenchmarkConcurrentExec|BenchmarkHistory|BenchmarkParallel|BenchmarkOpen|BenchmarkPeakRSS|BenchmarkMetricsOverhead|BenchmarkSharedWork|BenchmarkOptimizerPipeline|BenchmarkMitosisSweep|BenchmarkDot|BenchmarkTraceLoad|BenchmarkTimeToPicture|BenchmarkRepaint' \
		-benchtime 1x -count 3 -benchmem -run '^$$' . > bench.txt
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json < bench.txt > BENCH_$(SHA).json
	@echo wrote BENCH_$(SHA).json
	@if git log -1 --format=%B 2>/dev/null | grep -qF '[bench-skip]'; then \
		echo "bench gate skipped: [bench-skip] in commit message"; \
	elif [ -f BENCH_baseline.json ]; then \
		$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -gate $(GATE) -gate-min-ns $(GATE_MIN_NS) -gate-override '$(GATE_OVERRIDES)' < bench.txt > /dev/null; \
	else \
		echo "bench gate skipped: no BENCH_baseline.json"; \
	fi

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/offline-replay
	$(GO) run ./examples/online-monitor
	$(GO) run ./examples/multicore-analysis
	$(GO) run ./examples/tpch-workload
