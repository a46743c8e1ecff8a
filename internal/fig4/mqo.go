package fig4

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// The fig4mqo experiment: multi-query optimization over one shared
// memo. A batch of overlapping queries is optimized three ways —
// independently (the baseline), through ParallelOptimizeCtx with
// sharing disabled (gated: every plan cost must be byte-identical to
// the baseline), and through one shared memo with the cost-based
// Materialize/Reuse post-pass. The shared batch's plans are executed
// in order against one spool store and each query's result multiset is
// gated against its independent execution.

// MQOQuery is one query of the batch in the report.
type MQOQuery struct {
	// Name identifies the workload shape.
	Name string `json:"name"`
	// Cost is the independently optimized plan cost.
	Cost float64 `json:"cost"`
	// SharedCost is the plan cost after the shared-memo batch and the
	// Materialize/Reuse rewrite (a Materialize carrier pays the spool
	// write; a Reuse consumer drops to a spool scan).
	SharedCost float64 `json:"shared_cost"`
	// CostMatch reports that the sharing-disabled batch reproduced the
	// independent cost exactly.
	CostMatch bool `json:"cost_match"`
	// Match reports that the shared batch's executed result multiset
	// equals the independent execution's.
	Match bool `json:"match"`
}

// MQOResult is the outcome of RunMQO, serialized into BENCH_fig4.json
// as the "mqo" section.
type MQOResult struct {
	// Seed is the datagen seed the workload was generated from.
	Seed int64 `json:"seed"`
	// GOMAXPROCS records the hardware parallelism available to the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Rows is the target table cardinality.
	Rows int64 `json:"rows"`
	// Queries holds one entry per batch statement.
	Queries []MQOQuery `json:"queries"`
	// CostMismatches counts sharing-disabled batch plans whose cost
	// diverged from independent optimization. Correctness requires zero.
	CostMismatches int `json:"cost_mismatches"`
	// Mismatches counts shared-batch executions whose result multiset
	// diverged from the independent execution. Correctness requires zero.
	Mismatches int `json:"mismatches"`
	// SharedGroups is the number of equivalence classes reached by more
	// than one root in the shared memo.
	SharedGroups int `json:"shared_groups"`
	// SharedWinners is the number of winner plan nodes shared by more
	// than one root plan.
	SharedWinners int `json:"shared_winners"`
	// Spools is the number of Materialize/Reuse pairs the post-pass
	// introduced.
	Spools int `json:"spools"`
	// IndependentMatchCalls / SharedMatchCalls compare rule-match work:
	// the sum over independent optimizations vs the one shared batch.
	IndependentMatchCalls int `json:"independent_match_calls"`
	SharedMatchCalls      int `json:"shared_match_calls"`
	// IndependentSteps / SharedSteps compare moves pursued.
	IndependentSteps int `json:"independent_steps"`
	SharedSteps      int `json:"shared_steps"`
	// IndependentOptMS / BatchOptMS compare optimization wall time: the
	// sum of independent runs vs the one shared batch.
	IndependentOptMS float64 `json:"independent_opt_ms"`
	BatchOptMS       float64 `json:"batch_opt_ms"`
	// IndependentTotalCost / SharedTotalCost compare the batch's total
	// planned execution cost without and with Materialize/Reuse.
	IndependentTotalCost float64 `json:"independent_total_cost"`
	SharedTotalCost      float64 `json:"shared_total_cost"`
}

// mqoWorkloads builds an overlapping batch over the 3-table scaled
// catalog. The first four queries share the filtered R1 ⋈ R2 join; the
// last two share only the filtered R1 scan — so the batch has both a
// materialization candidate with several consumers and sharing too
// cheap to ever win (a spooled scan never beats rescanning the table).
func mqoWorkloads(cat *rel.Catalog) []e2eWorkload {
	get := func(name string) *rel.Get { return &rel.Get{Tab: cat.Table(name)} }
	col := func(tab, col string) rel.ColID { return cat.ColumnID(tab, col) }
	sel := func(tab string, lim int64) *core.ExprTree {
		return core.Node(&rel.Select{Pred: rel.Pred{Col: col(tab, "v"), Op: rel.CmpLT, Val: lim}},
			core.Node(get(tab)))
	}
	join2 := func() *core.ExprTree {
		return core.Node(rel.NewJoin(col("R1", "ja"), col("R2", "ja")),
			sel("R1", 300), sel("R2", 300))
	}

	join3 := core.Node(rel.NewJoin(col("R2", "jb"), col("R3", "id")),
		join2(), sel("R3", 300))

	group2 := core.Node(&rel.GroupBy{
		GroupCols: []rel.ColID{col("R1", "ja")},
		Aggs:      []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: col("R1", "v")}},
	}, join2())

	groupScan := core.Node(&rel.GroupBy{
		GroupCols: []rel.ColID{col("R1", "ja")},
		Aggs:      []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: col("R1", "v")}},
	}, sel("R1", 500))

	return []e2eWorkload{
		{name: "join2", tree: join2()},
		{name: "join2-groupby", tree: group2},
		{name: "join3", tree: join3},
		{name: "join2-orderby", tree: join2(), required: relopt.SortedOn(col("R1", "ja"))},
		{name: "scan-filter", tree: sel("R1", 500)},
		{name: "scan-groupby", tree: groupScan},
	}
}

// mqoTotal collapses a plan cost for reporting.
func mqoTotal(p *core.Plan) float64 { return p.Cost.(relopt.Cost).Total() }

// RunMQO optimizes and executes the overlapping batch over generated
// tables of about `rows` rows each.
func RunMQO(cfg Config, rows int64) MQOResult {
	cfg = cfg.Defaults()
	if rows <= 0 {
		rows = 200_000
	}
	src := datagen.New(cfg.Seed)
	cat := src.ScaledCatalog(3, rows)
	db := exec.FromData(cat, src.Rows(cat))
	model := relopt.New(cat, relopt.DefaultConfig())
	workloads := mqoWorkloads(cat)

	res := MQOResult{Seed: cfg.Seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Rows: rows}

	// Independent baseline: one fresh optimizer per query, then execute
	// each plan alone. Costs, counters, and result fingerprints are the
	// ground truth the two batch modes are gated against.
	type baseline struct {
		cost float64
		fp   string
		rows int
	}
	bases := make([]baseline, len(workloads))
	for i, w := range workloads {
		o := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
		root := o.InsertQuery(w.tree)
		start := time.Now()
		plan, err := o.Optimize(root, w.required)
		optMS := float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil || plan == nil {
			panic(fmt.Sprintf("fig4: mqo optimize %s: %v", w.name, err))
		}
		res.IndependentMatchCalls += o.Stats().MatchCalls
		res.IndependentSteps += o.Stats().Steps()
		res.IndependentOptMS += optMS
		res.IndependentTotalCost += mqoTotal(plan)
		out, schema, err := exec.Run(db, plan)
		if err != nil {
			panic(fmt.Sprintf("fig4: mqo execute %s: %v", w.name, err))
		}
		bases[i] = baseline{cost: mqoTotal(plan), fp: exec.Fingerprint(exec.Canonical(out, schema)), rows: len(out)}
		res.Queries = append(res.Queries, MQOQuery{Name: w.name, Cost: bases[i].cost})
	}

	// Sharing disabled: the batch runs ParallelOptimizeCtx's
	// shared-nothing pool; every plan cost must be byte-identical to
	// independent optimization.
	offOpts := &core.Options{}
	offJobs := make([]core.ParallelJob, len(workloads))
	for i, w := range workloads {
		offJobs[i] = core.ParallelJob{Model: model, Options: offOpts, Tree: w.tree, Required: w.required}
	}
	for i, r := range core.ParallelOptimizeCtx(context.Background(), offJobs, 1) {
		if r.Err != nil || r.Plan == nil {
			panic(fmt.Sprintf("fig4: mqo no-sharing batch %s: %v", workloads[i].name, r.Err))
		}
		res.Queries[i].CostMatch = mqoTotal(r.Plan) == bases[i].cost
		if !res.Queries[i].CostMatch {
			res.CostMismatches++
		}
	}

	// Sharing enabled: one shared memo, then the cost-based
	// Materialize/Reuse rewrite, then execution in batch order against
	// one spool store.
	onOpts := &core.Options{}
	onOpts.Search.ShareMemo = true
	onJobs := make([]core.ParallelJob, len(workloads))
	for i, w := range workloads {
		onJobs[i] = core.ParallelJob{Model: model, Options: onOpts, Tree: w.tree, Required: w.required}
	}
	start := time.Now()
	onResults := core.ParallelOptimizeCtx(context.Background(), onJobs, 1)
	res.BatchOptMS = float64(time.Since(start).Nanoseconds()) / 1e6
	plans := make([]*core.Plan, len(onResults))
	for i, r := range onResults {
		if r.Err != nil || r.Plan == nil {
			panic(fmt.Sprintf("fig4: mqo shared batch %s: %v", workloads[i].name, r.Err))
		}
		plans[i] = r.Plan
	}
	stats := onResults[0].Stats
	res.SharedGroups = stats.SharedGroups
	res.SharedWinners = stats.SharedWinners
	res.SharedMatchCalls = stats.MatchCalls
	res.SharedSteps = stats.Steps()

	plans, res.Spools = core.MaterializeSharedPlans(model, plans)
	spools := exec.NewSpoolStore()
	for i, p := range plans {
		res.Queries[i].SharedCost = mqoTotal(p)
		res.SharedTotalCost += mqoTotal(p)
		out, schema, err := exec.RunOpts(nil, db, p, nil, exec.Options{Spools: spools})
		if err != nil {
			panic(fmt.Sprintf("fig4: mqo execute shared %s: %v", workloads[i].name, err))
		}
		res.Queries[i].Match = exec.Fingerprint(exec.Canonical(out, schema)) == bases[i].fp
		if !res.Queries[i].Match {
			res.Mismatches++
		}
	}
	return res
}

// FormatMQO renders the experiment.
func FormatMQO(r MQOResult) string {
	out := fmt.Sprintf("Multi-query optimization over one shared memo — ~%d rows/table, GOMAXPROCS=%d\n",
		r.Rows, r.GOMAXPROCS)
	out += fmt.Sprintf("  %-16s %14s %14s %10s %6s\n", "query", "cost", "shared-cost", "cost-gate", "match")
	for _, q := range r.Queries {
		costGate := "ok"
		if !q.CostMatch {
			costGate = "FAIL"
		}
		match := "ok"
		if !q.Match {
			match = "FAIL"
		}
		out += fmt.Sprintf("  %-16s %14.1f %14.1f %10s %6s\n", q.Name, q.Cost, q.SharedCost, costGate, match)
	}
	out += fmt.Sprintf("shared groups: %d   shared winners: %d   spools materialized: %d\n",
		r.SharedGroups, r.SharedWinners, r.Spools)
	out += fmt.Sprintf("optimization work: match calls %d -> %d, steps %d -> %d (independent -> shared)\n",
		r.IndependentMatchCalls, r.SharedMatchCalls, r.IndependentSteps, r.SharedSteps)
	out += fmt.Sprintf("optimization wall: %.1f ms independent, %.1f ms batch\n",
		r.IndependentOptMS, r.BatchOptMS)
	out += fmt.Sprintf("total planned cost: %.1f -> %.1f\n", r.IndependentTotalCost, r.SharedTotalCost)
	out += fmt.Sprintf("cost mismatches (sharing disabled): %d   result mismatches: %d\n",
		r.CostMismatches, r.Mismatches)
	return out
}
