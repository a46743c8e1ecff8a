package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is the single source of the benchmark's contract: the
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json and the tables in README.md are
// rendered from it (-describe json / -describe md); a test fails when
// either committed file is stale.

// Seeds. Every generator and RandSeed is driven by -seed; DevSeed is the
// one used while the benchmark was written, HeldOutSeed is only ever
// run to check that correctness gates and bounds hold on unseen inputs.
const (
	DevSeed     = 1993
	HeldOutSeed = 20260925
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// Sizes of the generated inputs, shared by the workloads and printed in
// every run's environment header.
const (
	fig4QueriesPerLevel = 200 // opt-fig4: distinct queries at each of 6, 8, 10 relations
	budgetedPerCell     = 72  // opt-budgeted: queries per (level, shape) cell, a third under each policy
	budgetedMaxSteps    = 200 // opt-budgeted: Budget.MaxSteps
	analyticTables      = 3   // exec-analytic
	analyticRows        = 200_000
	pointTables         = 6 // point-hot, point-churn, serve-open
	pointRows           = 5000
	churnCycle          = 1024
	churnCacheBytes     = 120 << 10 // holds about 64 plans
	serveCacheBytes     = 4 << 20   // what volcano-serve ships
	serveOpenRate       = 200       // serve-open phase A arrivals per second
	serveNovelEvery     = 20        // serve-open: 1 in 20 arrivals is a never-seen statement
	serveNovelPool      = 1024
	serveDataSeed       = DevSeed // serve-open: the daemon's tables, the same for every -seed
)

var fig4Levels = []int{6, 8, 10}
var budgetedLevels = []int{8, 9, 10}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
	Doc    string  // README only
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

var workloadDefs = []workloadDef{
	{"opt-fig4", "the paper's Figure 4: cold guided exhaustive optimization of random select-join queries at 6, 8 and 10 relations; core search and relopt costing do all the work"},
	{"opt-budgeted", "same optimizer under a 200-step budget on chain, star and random 8-10-relation queries, the three policies in turn; explore cost and anytime plan quality dominate"},
	{"exec-analytic", "four analytic SQL queries over 3 x 200000-row tables through vdb with warm plans; the executor does over 99% of the work"},
	{"point-hot", "the daemon's demo statements and commuted spellings over 6 x 5000-row tables, all plans cached; parse, fingerprint, cache-hit and plan-build fixed costs dominate"},
	{"point-churn", "1024 distinct small statements cycled against a cache of about 64 plans; every lookup misses, optimizes, inserts and evicts"},
	{"serve-open", "a volcano-serve child over HTTP: open loop at a fixed rate for latency, then a closed loop on every CPU for throughput; 1 in 20 statements is new"},
}

var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of at least three full set-ups: data generation, vdb.Open or daemon start, reference computation, cache warm-up"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median wall time of one operation (per slice; the median over the run's slices is reported, as for the next four)"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "95th percentile; every run has at least 200 operations and ten slices"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "correct operations per second of operation time (closed loop)"},
	{Name: "plan_cost_ratio", Unit: "ratio", Better: "lower", Bound: 0.25,
		Doc: "mean over operations of estimated plan cost / reference cost; exactly 1 wherever search is exhaustive"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "user+system CPU of the process under test per operation"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.1,
		Doc: "runtime.MemStats.TotalAlloc delta per operation"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Doc: "highest resident set size sampled during the timed run (serve-open: the daemon's VmHWM)"},
}

func layer(name, unit, better, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Moves: moves}
}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	const (
		optFig4  = "op_p50_ms, op_p95_ms, ops_per_s, cpu_ms_per_op on opt-fig4; slightly point-churn; none on exec-analytic, point-hot"
		explains = "explains opt-fig4 time (exact count)"
		budgeted = "op_p50_ms, op_p95_ms on opt-budgeted"
		quality  = "plan_cost_ratio on opt-budgeted"
		noneYet  = "no end-to-end metric until it becomes the default"
		serve    = "op_p50_ms, op_p95_ms (phase A), ops_per_s, cpu_ms_per_op (phase B) on serve-open only"
	)
	defs := []metricDef{
		layer("bench.fail_share", "ratio", "lower", "failed / attempted of the run; must be 0 everywhere"),
		layer("trace.overhead_share", "ratio", "lower", "(traced - untraced op_p50_ms) / untraced; the cost of the bench's own spans"),
		layer("trace.self_sum_share", "ratio", "higher", "sum of the layers' self times / traced operation wall time; the rest is overhead_us"),

		layer("sqlish.parse_us", "us", "lower", "op_p50_ms, ops_per_s on point-hot, point-churn, serve-open; none on opt-*, exec-analytic"),
		layer("core.fingerprint_us", "us", "lower", "op_p50_ms on point-hot, point-churn; none on opt-* (no cache)"),

		layer("core.insert_us", "us", "lower", optFig4),
		layer("core.explore_ms", "ms", "lower", optFig4+"; dominates opt-budgeted"),
		layer("core.explore_share", "ratio", "lower", "ExploreCtx on a fresh optimizer / full OptimizeCtx"),
	}
	for _, n := range fig4Levels {
		defs = append(defs, layer(fmt.Sprintf("core.optimize_ms_rel%d", n), "ms", "lower", optFig4))
	}
	for _, c := range []string{"match_calls", "steps", "goals", "rules_fired", "exprs", "groups", "limit_stages"} {
		defs = append(defs, layer("core."+c+"_per_op", "count", "lower", explains))
	}
	defs = append(defs,
		layer("core.winner_hit_share", "ratio", "higher", explains),
		layer("core.moves_reused_share", "ratio", "higher", explains),
		layer("core.goals_pruned_share", "ratio", "higher", explains),
		layer("core.peak_memo_kb", "KiB", "lower", "peak_rss_mb, alloc_kb_per_op on opt-fig4, opt-budgeted"),
		layer("exodus.agree_share", "ratio", "higher", "cross-check of opt-fig4's reference optimum: 6-relation queries on which the EXODUS baseline prices its plan the same"),
		layer("exodus.cheaper_share", "ratio", "lower", "6-relation queries the baseline prices below the optimum; its sort pricing differs from relopt's, so not gated"),
		layer("core.optimize_w2_ms_rel10", "ms", "lower", noneYet+" (Workers=2)"),
		layer("core.w2_speedup", "ratio", "higher", noneYet+"; cpu_ms_per_op is what it would cost"),
		layer("core.tasks_parked_share", "ratio", "lower", noneYet),
	)
	for _, p := range []string{"guided", "mcts", "widening"} {
		for _, n := range budgetedLevels {
			defs = append(defs, layer(fmt.Sprintf("core.%s_ms_rel%d", p, n), "ms", "lower", budgeted))
		}
	}
	defs = append(defs, layer("core.episodes_per_op", "count", "lower", budgeted))
	for _, p := range []string{"guided", "mcts", "widening"} {
		defs = append(defs, layer("core."+p+"_cost_vs_seed", "ratio", "lower", quality))
		for _, s := range []string{"chain", "star", "random"} {
			defs = append(defs, layer("core."+p+"_cost_vs_seed_"+s, "ratio", "lower", quality))
		}
		defs = append(defs, layer("core."+p+"_completed_share", "ratio", "higher", "fail_share, plan_cost_ratio on opt-budgeted"))
	}
	defs = append(defs,
		layer("core.fallback_share", "ratio", "lower", quality),
		layer("core.floor_violation_share", "ratio", "lower", quality+"; budgeted plans costing more than the seed floor, which the anytime contract forbids"),

		layer("relopt.model_new_us", "us", "lower", "op_p50_ms on point-churn (model built per miss), opt-fig4; none on point-hot"),
		layer("relopt.seed_us", "us", "lower", "op_p50_ms on opt-fig4, point-churn"),
		layer("relopt.dynamic_ms", "ms", "lower", "op_p95_ms on point-churn (parameterized statements)"),

		layer("plancache.hit_share", "ratio", "higher", "about 1 on point-hot, 0 on point-churn, 0.95 on serve-open, or the workload is mis-sized"),
		layer("plancache.do_hit_us", "us", "lower", "op_p50_ms on point-hot, serve-open"),
		layer("plancache.do_miss_us", "us", "lower", "op_p50_ms on point-churn only"),
		layer("plancache.evictions_per_op", "count", "lower", "point-churn only"),
		layer("plancache.entries", "count", "higher", "working set held; about 64 on point-churn"),
		layer("plancache.bytes", "B", "lower", "peak_rss_mb on point-churn"),

		layer("exec.build_us", "us", "lower", "op_p50_ms on point-hot, serve-open"),
	)
	for _, prefix := range []string{"exec.run_ms_", "exec.col_ms_"} {
		for _, q := range analyticQueryNames {
			moves := "ops_per_s on exec-analytic"
			switch {
			case prefix == "exec.col_ms_":
				moves = noneYet + " (Columnar:true)"
			case q == "join3-orderby":
				moves += "; op_p95_ms"
			case q == "join2":
				moves += "; op_p50_ms"
			}
			defs = append(defs, layer(prefix+q, "ms", "lower", moves))
		}
	}
	defs = append(defs,
		layer("exec.exchange2_ms_join3-orderby", "ms", "lower", noneYet+" (exchange degree 2 on 2 CPUs)"),
		layer("exec.rows_out_per_s", "1/s", "higher", "ops_per_s on exec-analytic"),
		layer("exec.alloc_kb_per_op", "KiB", "lower", "alloc_kb_per_op, peak_rss_mb on exec-analytic"),
		layer("exec.tiny_run_us", "us", "lower", "op_p50_ms on point-hot"),

		layer("vdb.optimize_us", "us", "lower", "op_p50_ms on point-churn; under 1% of the op on exec-analytic"),
		layer("vdb.exec_us", "us", "lower", "op_p50_ms on every vdb workload"),
		layer("vdb.cached_share", "ratio", "higher", "mirrors plancache.hit_share as vdb reports it"),
		layer("vdb.degraded_share", "ratio", "lower", "must be 0: no workload sets a budget that binds"),
		layer("vdb.overhead_us", "us", "lower", "QueryCtx wall minus the separately timed layers; point-hot"),

		layer("serve.handler_mean_us", "us", "lower", serve),
		layer("serve.outside_handler_us", "us", "lower", serve+"; client latency minus wire optimize_us and exec_us"),
		layer("serve.client_p99_ms", "ms", "lower", serve),
		layer("serve.shed_share", "ratio", "lower", "fail_share on serve-open"),
		layer("serve.degraded_share", "ratio", "lower", "plan_cost_ratio on serve-open"),
		layer("serve.server_cpu_ms_per_req", "ms", "lower", "cpu_ms_per_op, ops_per_s on serve-open"),
		layer("serve.resp_kb_per_req", "KiB", "lower", serve),
		layer("loadgen.late_p95_ms", "ms", "lower", "must stay under 1 ms, or phase A measured the generator"),
		layer("loadgen.cpu_share", "ratio", "lower", "bench CPU / (bench + server CPU) in phase B"),

		layer("datagen.rows_per_s", "1/s", "higher", "setup_s on exec-analytic"),
		layer("exec.load_rows_per_s", "1/s", "higher", "setup_s on exec-analytic"),
	)
	return defs
}

// analyticQueryNames are exec-analytic's four queries, in the order of
// internal/fig4's e2e experiment.
var analyticQueryNames = []string{"scan-filter", "join2", "join3-orderby", "groupby"}

// describeJSON renders BENCHMARK.json.
func describeJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type per struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []per         `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, per{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// describeMarkdown renders the generated tables of README.md.
func describeMarkdown() string {
	var b strings.Builder
	b.WriteString("### Workloads\n\n| workload | why |\n|---|---|\n")
	for _, w := range workloadDefs {
		fmt.Fprintf(&b, "| `%s` | %s |\n", w.Name, w.Why)
	}
	b.WriteString("\n### End-to-end metrics (untraced run)\n\n| metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n")
	for _, m := range endToEndDefs {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %g | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	b.WriteString("\n### Per-layer metrics (traced run) and what each should move\n\n| metric | unit | better | should move |\n|---|---|---|---|\n")
	for _, m := range perLayerDefs {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Moves)
	}
	fmt.Fprintf(&b, "\nDevelopment seed %d, held-out seed %d. serve-open phase A rate: %d requests/s.\n",
		DevSeed, HeldOutSeed, serveOpenRate)
	return b.String()
}
