GO ?= go

.PHONY: build test test-race test-race-core vet staticcheck bench bench-explore bench-guided bench-anytime bench-cache bench-e2e bench-col bench-mqo bench-mcts bench-serve bench-check profile fuzz-fingerprint

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

# Guided branch-and-bound A/B: the guided/unguided benchmark pair and
# the fig4guided cost-identity experiment (plan costs must match).
bench-guided:
	$(GO) test -run NONE -bench 'BenchmarkFig4Volcano$$|BenchmarkFig4VolcanoUnguided' -benchmem .
	$(GO) run ./cmd/volcano-bench -experiment fig4guided -json ""

# Anytime smoke: 8-relation Figure-4 queries under shrinking wall-clock
# and step budgets must still return complete plans delivering the
# required properties and costing no more than the seed floor
# (volcano-bench exits non-zero on any contract violation).
bench-anytime:
	$(GO) run ./cmd/volcano-bench -experiment anytime -queries 8 -json ""

# Plan-cache serving: warm verified hits against cold optimization, with
# the cache micro-benchmarks. volcano-bench exits non-zero if any served
# plan's cost differs from a fresh optimization's.
bench-cache:
	$(GO) run ./cmd/volcano-bench -experiment fig4cache -json ""
	$(GO) test -run NONE -bench 'BenchmarkCache' -benchmem ./internal/plancache/

# End-to-end optimize-and-execute A/B over ~10⁶-row generated tables:
# the NoFusion row kernels row-at-a-time and batched vs the default build
# (columnar kernels wherever the plan allows) vs the default build behind
# a parallel exchange at degrees 2/4/8. Every engine's result multiset is
# gated against the row baseline; volcano-bench exits non-zero on a
# mismatch. Override ROWS for other scales (e.g. ROWS=10000000).
ROWS ?= 1000000
bench-e2e:
	$(GO) run ./cmd/volcano-bench -experiment e2e -rows $(ROWS) -json ""

# Executor e2e smoke: the same row kernels vs default build A/B at 10⁵
# rows — quick enough for CI, still large enough that the vectorized
# kernels dominate the wall time. Exits non-zero on any
# result-fingerprint mismatch across the engines and exchange degrees.
COL_ROWS ?= 100000
bench-col:
	$(GO) run ./cmd/volcano-bench -experiment e2e -rows $(COL_ROWS) -json ""

# Multi-query optimization over one shared memo: an overlapping batch
# optimized independently, shared-nothing (every plan cost must be
# byte-identical to independent optimization — volcano-bench exits
# non-zero otherwise), and over one shared memo with the cost-based
# Materialize/Reuse post-pass (every executed result multiset gated
# against independent execution). Override ROWS for other scales.
bench-mqo:
	$(GO) run ./cmd/volcano-bench -experiment fig4mqo -rows $(ROWS) -json ""

# Stochastic-policy smoke: MCTS and iterative widening vs guided
# branch-and-bound on a small fixed-seed grid. volcano-bench exits
# non-zero if any plan violates the anytime contract or a stochastic
# policy's mean cost exceeds 1.5x guided B&B.
bench-mcts:
	$(GO) run ./cmd/volcano-bench -experiment fig4mcts -seed 7 -queries 4 \
		-mcts-levels 8,10 -mcts-steps 300,1000 -json ""

# Serving tier under open-loop load: an in-process volcano-serve daemon
# measured unloaded, then at ~2× its estimated capacity. Every completed
# response is gated against reference row fingerprints collected before
# any load; volcano-bench exits non-zero on a mismatch. Override
# SERVE_ROWS / SERVE_DURATION for other scales.
SERVE_ROWS ?= 5000
SERVE_DURATION ?= 3s
bench-serve:
	$(GO) run ./cmd/volcano-bench -experiment serve \
		-serve-rows $(SERVE_ROWS) -serve-duration $(SERVE_DURATION) -json ""

# The repository benchmark (BENCHMARK.json, bench/) is a module of its
# own that `go test ./...` at the root does not reach: run its tests, and
# smoke four workloads for two seconds each. The benchmark checks every
# result against its oracle and exits non-zero on a wrong one. The traced
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

# CPU and heap profiles of the Figure-4 hot path (serial fig4 by
# default; override EXPERIMENT=fig4guided etc. to profile another). For
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
