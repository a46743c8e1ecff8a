GO ?= go

.PHONY: build test test-race test-debug vet staticcheck loc bench bench-explore bench-guided bench-check fig4-json profile fuzz-fingerprint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The executor, vdb and the daemon under the volcano_debug tag: the
# scratch pools poison what they hand out and take back, and keep none of
# it, so a read of a vector or a batch's headers after Close meets the
# poison instead of another operator's data; every Run checks the stored
# tables against their checksums; and operators that rely on a sort
# order check it where they read it.
test-debug:
	$(GO) test -tags volcano_debug -race ./internal/exec/ ./internal/vdb/ ./internal/serve/

# bench/ is a module of its own, which the root `go vet ./...` does not
# reach.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

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

# The headline numbers: Figure-4 optimization time, the search-engine
# micro-benchmarks, cold guided optimizations with a model built per
# query as opt-fig4 builds them (BenchmarkFig4Volcano builds its model
# outside the timed loop, so it does not see relopt.New), a served
# plan-cache miss (vdb's cold PrepareCtx over the point-churn statement
# shapes), and the daemon's /query handler over point-hot's weighted
# statements (parse, execute and encode; B/op and response bytes per
# request).
bench:
	$(GO) test -run NONE -bench 'BenchmarkFig4Volcano' -benchmem .
	$(GO) test -run NONE -bench 'BenchmarkCollectMoves|BenchmarkWinnerLookup' -benchmem ./internal/core/
	$(GO) test -run NONE -bench 'BenchmarkExploreFig4' -benchmem ./internal/relopt/
	$(GO) test -run NONE -bench 'BenchmarkServedMiss' -benchmem ./internal/vdb/
	$(GO) test -run NONE -bench 'BenchmarkServeQuery' -benchmem ./internal/serve/

# Transformation-rule exploration inside cold optimizations: exploreGroup
# is about 30% of the CPU time in a profile of BenchmarkExploreFig4.
# (Traced core.explore_share can exceed 1, on opt-budgeted especially,
# because its probe explores every class a query references and a search
# explores only those its goals reach.) Measures
# ns/op, B/op and allocs/op of three cold guided optimizations at
# each of 6, 8 and 10 relations (BenchmarkExploreFig4), and of chain,
# star and random queries at 8, 9 and 10 relations under a 200-step
# budget (BenchmarkExploreBudgeted), fixed seed.
bench-explore:
	$(GO) test -run NONE -bench 'BenchmarkExploreFig4|BenchmarkExploreBudgeted' -benchmem ./internal/relopt/

# Guided branch-and-bound A/B: the guided/unguided benchmark pair. Plan
# costs must match; TestGuidedMatchesUnguided gates that.
bench-guided:
	$(GO) test -run NONE -bench 'BenchmarkFig4Volcano$$|BenchmarkFig4VolcanoUnguided' -benchmem .

# The repository benchmark (BENCHMARK.json, bench/) is a module of its
# own that `go test ./...` at the root does not reach: run its tests, and
# smoke all six workloads for two seconds each. The benchmark checks every
# result against its oracle and exits non-zero on a wrong one; serve-open
# drives a volcano-serve child over HTTP, so the loaded serving path keeps
# an oracle-checked gate. The traced
# opt-fig4 run compiles and drives the frozen bench's core.w2_* probe,
# the one reader of the deprecated core.SearchOptions.Workers and
# core.Stats.TasksRun/TasksParked. The traced opt-budgeted run at seed
# 1994 reports core.floor_violation_share, the anytime floor's metric.
# The traced exec-analytic run prints each statement's executor time
# (exec.run_ms_*), among them exec.run_ms_join2 (a hash join whose probes
# mostly hit) and exec.run_ms_join3-orderby (a merge join over sorts).
# The traced point-hot run prints exec.tiny_run_us, the executor's share
# of a cached point statement. The traced point-churn run is the served
# plan-cache miss: every statement optimizes (vdb.optimize_us) or runs a
# dynamic-plan sweep (relopt.dynamic_ms), and its plans must stay optimal
# (plan_cost_ratio 1).
bench-check:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload exec-analytic --seed 1993 --seconds 2 --trace 1
	bash bench/run.sh --workload point-hot --seed 1993 --seconds 2 --trace 1
	bash bench/run.sh --workload point-churn --seed 1993 --seconds 2 --trace 1
	bash bench/run.sh --workload opt-fig4 --seed 1993 --seconds 2 --trace 1
	bash bench/run.sh --workload opt-budgeted --seed 1994 --seconds 2 --trace 1
	bash bench/run.sh --workload serve-open --seed 1993 --seconds 2 --trace 0

# Regenerates BENCH_fig4.json, the Figure 4 curve EXPERIMENTS.md quotes:
# seed 1993, 2-8 relations, 50 queries per level, written whole with the
# run's commit, Go version, GOMAXPROCS and CPU count. After it, update
# EXPERIMENTS.md's Figure 4 table and work-space figure; the fig4
# package's TestExperimentsQuoteBenchJSON fails until they match.
fig4-json:
	$(GO) run ./cmd/volcano-bench -experiment fig4 -seed 1993 -min-rels 2 -max-rels 8 \
		-queries 50 -json BENCH_fig4.json

# CPU and heap profiles of the Figure-4 hot path (fig4 by default;
# override EXPERIMENT=ablation etc. to profile another). For
# exploration alone, profile the package benchmark behind bench-explore:
#   go test -run NONE -bench BenchmarkExploreFig4 -cpuprofile cpu.pprof \
#     -memprofile mem.pprof -o /tmp/relopt.test ./internal/relopt/
# To count every allocation rather than a sample, and see which callers
# make a function's objects (how the boxed cost arithmetic was found):
#   GODEBUG=memprofilerate=1 go test -run NONE -bench BenchmarkExploreFig4 \
#     -benchtime 20x -memprofile mem.pprof -o /tmp/relopt.test ./internal/relopt/
#   go tool pprof -sample_index=alloc_objects -peek 'FUNC' /tmp/relopt.test mem.pprof
EXPERIMENT ?= fig4
profile:
	$(GO) run ./cmd/volcano-bench -experiment $(EXPERIMENT) -json "" \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# Short fingerprint-soundness fuzz over the checked-in seed corpus.
fuzz-fingerprint:
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime 20s ./internal/core/
