GO ?= go

.PHONY: build test test-race test-race-core vet staticcheck loc bench bench-explore bench-guided bench-check profile fuzz-fingerprint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# What still runs on more than one goroutine around the search engine,
# under the race detector: the shared-nothing ParallelOptimize pool (core
# and the root package) and plan-cache coalescing (plancache, vdb).
test-race-core:
	$(GO) test -race ./internal/core/... ./internal/plancache/ ./internal/vdb/... .

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is available (CI installs it; the
# local toolchain need not have it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Non-test Go lines outside bench/, per top-level package and in total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = n == 2 ? "." : n == 3 ? p[2] : p[2] "/" p[3]; s[d] += $$1; t += $$1 } END { for (d in s) printf "%7d %s\n", s[d], d; printf "%7d total\n", t }' | sort -k2

# The headline numbers: Figure-4 optimization time (serial and parallel
# batch throughput) plus the search-engine micro-benchmarks.
bench:
	$(GO) test -run NONE -bench 'BenchmarkFig4Volcano|BenchmarkFig4VolcanoParallel' -benchmem .
	$(GO) test -run NONE -bench 'BenchmarkCollectMoves|BenchmarkWinnerLookup' -benchmem ./internal/core/

# Transformation-rule exploration, about seven tenths of a cold
# optimization (traced opt-fig4 core.explore_share 0.70; 0.80 on
# opt-budgeted): ns/op, B/op and allocs/op of three cold guided
# optimizations at each of 6, 8 and 10 relations (fixed seed).
bench-explore:
	$(GO) test -run NONE -bench 'BenchmarkExploreFig4' -benchmem ./internal/relopt/

# Guided branch-and-bound A/B: the guided/unguided benchmark pair. Plan
# costs must match; TestGuidedMatchesUnguided gates that.
bench-guided:
	$(GO) test -run NONE -bench 'BenchmarkFig4Volcano$$|BenchmarkFig4VolcanoUnguided' -benchmem .

# The repository benchmark (BENCHMARK.json, bench/) is a module of its
# own that `go test ./...` at the root does not reach: run its tests, and
# smoke five workloads for two seconds each. The benchmark checks every
# result against its oracle and exits non-zero on a wrong one; serve-open
# drives a volcano-serve child over HTTP, so the loaded serving path keeps
# an oracle-checked gate. The traced
# opt-fig4 run compiles and drives the frozen bench's core.w2_* probe,
# the one reader of the deprecated core.SearchOptions.Workers and
# core.Stats.TasksRun/TasksParked. The traced opt-budgeted run at seed
# 1994 reports core.floor_violation_share, the anytime floor's metric.
# The traced point-hot run prints exec.tiny_run_us, the executor's share
# of a cached point statement.
bench-check:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload exec-analytic --seed 1993 --seconds 2 --trace 0
	bash bench/run.sh --workload point-hot --seed 1993 --seconds 2 --trace 1
	bash bench/run.sh --workload opt-fig4 --seed 1993 --seconds 2 --trace 1
	bash bench/run.sh --workload opt-budgeted --seed 1994 --seconds 2 --trace 1
	bash bench/run.sh --workload serve-open --seed 1993 --seconds 2 --trace 0

# CPU and heap profiles of the Figure-4 hot path (fig4 by default;
# override EXPERIMENT=ablation etc. to profile another). For
# exploration alone, profile the package benchmark behind bench-explore:
#   go test -run NONE -bench BenchmarkExploreFig4 -cpuprofile cpu.pprof \
#     -memprofile mem.pprof -o /tmp/relopt.test ./internal/relopt/
EXPERIMENT ?= fig4
profile:
	$(GO) run ./cmd/volcano-bench -experiment $(EXPERIMENT) -json "" \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# Short fingerprint-soundness fuzz over the checked-in seed corpus.
fuzz-fingerprint:
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime 20s ./internal/core/
