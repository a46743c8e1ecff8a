package fig4

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// E2EEngine is one engine configuration's measurement on one workload.
type E2EEngine struct {
	// Engine names the configuration: "row" and "batch" (the NoFusion row
	// kernels at batch size 1 and at the batched size), "columnar" (the
	// default build), or "exchange(d)" (the default build behind a
	// parallel exchange).
	Engine string `json:"engine"`
	// WallMS is the execution wall time (plan build + drain).
	WallMS float64 `json:"wall_ms"`
	// RowsOut is the result cardinality.
	RowsOut int `json:"rows_out"`
	// SpeedupVsRow is the row engine's wall time divided by this one's.
	SpeedupVsRow float64 `json:"speedup_vs_row"`
	// SpeedupVsBatch is the batched row kernels' wall time divided by
	// this one's — the columnar kernels' headline number.
	SpeedupVsBatch float64 `json:"speedup_vs_batch,omitempty"`
	// Match reports whether the result multiset equals the row engine's.
	Match bool `json:"match"`
	// Error records an engine that could not run (e.g. the parallel
	// model found no plan for the required partitioning).
	Error string `json:"error,omitempty"`
}

// E2EWorkload is one query's A/B across engine configurations.
type E2EWorkload struct {
	// Name identifies the workload shape.
	Name string `json:"name"`
	// OptimizeMS is the serial plan's optimization time.
	OptimizeMS float64 `json:"optimize_ms"`
	// Engines holds one entry per engine configuration.
	Engines []E2EEngine `json:"engines"`
}

// E2EResult is the outcome of RunE2E, serialized into BENCH_fig4.json as
// the "e2e" section.
type E2EResult struct {
	// GOMAXPROCS records the hardware parallelism available to the run;
	// exchange speedups beyond 1 require more than one CPU.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Seed is the datagen seed the tables were generated from, so a
	// recorded run can be reproduced bit-for-bit with -seed.
	Seed int64 `json:"seed"`
	// Rows is the target table cardinality.
	Rows int64 `json:"rows"`
	// BatchSize is the batched engines' rows per batch.
	BatchSize int `json:"batch_size"`
	// Workers is the exchange producer override (0 = degree).
	Workers int `json:"workers,omitempty"`
	// Degrees are the exchange degrees swept.
	Degrees []int `json:"degrees"`
	// Workloads holds one entry per query.
	Workloads []E2EWorkload `json:"workloads"`
	// Mismatches counts engine runs whose result multiset diverged from
	// the row engine's. Correctness requires zero.
	Mismatches int `json:"mismatches"`
}

// e2eWorkload is one benchmark query: a logical tree plus the required
// properties for serial runs and the partitioning column for parallel
// runs.
type e2eWorkload struct {
	name     string
	tree     *core.ExprTree
	required core.PhysProps // serial-engine requirement (nil or sort)
	partCol  rel.ColID      // partitioning column for exchange runs
}

// e2eWorkloads builds the benchmark queries over a 3-table scaled
// catalog: a selective scan, the headline 2-way join, a 3-way join with
// ORDER BY, and a grouping query.
func e2eWorkloads(cat *rel.Catalog) []e2eWorkload {
	get := func(name string) *rel.Get { return &rel.Get{Tab: cat.Table(name)} }
	col := func(tab, col string) rel.ColID { return cat.ColumnID(tab, col) }
	sel := func(tab string, lim int64) *core.ExprTree {
		return core.Node(&rel.Select{Pred: rel.Pred{Col: col(tab, "v"), Op: rel.CmpLT, Val: lim}},
			core.Node(get(tab)))
	}

	// R1 filtered by selectivity 0.5.
	scan := sel("R1", 500)

	// R1 ⋈ R2 on the moderate-duplication join column, both filtered.
	join2 := core.Node(rel.NewJoin(col("R1", "ja"), col("R2", "ja")),
		sel("R1", 300), sel("R2", 300))

	// (R1 ⋈ R2) ⋈ R3 on R2's key-like pairing against R3's unique key,
	// so the third join is 1:1 and the sort input stays bounded.
	join3 := core.Node(rel.NewJoin(col("R2", "jb"), col("R3", "id")),
		core.Node(rel.NewJoin(col("R1", "ja"), col("R2", "ja")),
			sel("R1", 300), sel("R2", 300)),
		sel("R3", 300))

	// COUNT and SUM(v) per join-column group over filtered R1.
	group := core.Node(&rel.GroupBy{
		GroupCols: []rel.ColID{col("R1", "ja")},
		Aggs:      []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: col("R1", "v")}},
	}, sel("R1", 500))

	return []e2eWorkload{
		{name: "scan-filter", tree: scan, partCol: col("R1", "ja")},
		{name: "join2", tree: join2, partCol: col("R1", "ja")},
		{name: "join3-orderby", tree: join3, required: relopt.SortedOn(col("R1", "ja")), partCol: col("R1", "ja")},
		{name: "groupby", tree: group, partCol: col("R1", "ja")},
	}
}

// e2ePlan optimizes one workload tree under a model configuration.
func e2ePlan(cat *rel.Catalog, cfg relopt.Config, tree *core.ExprTree, required core.PhysProps) (*core.Plan, float64, error) {
	opt := core.NewOptimizer(relopt.New(cat, cfg), nil)
	root := opt.InsertQuery(tree)
	start := time.Now()
	plan, err := opt.Optimize(root, required)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return nil, ms, err
	}
	if plan == nil {
		return nil, ms, fmt.Errorf("fig4: no plan")
	}
	return plan, ms, nil
}

// e2eReps is how many times each engine runs per workload; the fastest
// wall time is kept per engine. Engines are interleaved round-robin
// across repetitions so a slow stretch of the machine (GC debt, a noisy
// co-tenant on shared hardware) taxes every engine instead of whichever
// one it happened to land on.
const e2eReps = 5

// e2eEngineRun is one engine configuration queued for measurement.
type e2eEngineRun struct {
	name string
	plan *core.Plan
	opts exec.Options

	wall float64
	n    int
	fp   string
	err  error
}

// run executes the engine once, folding the wall time into the minimum.
func (e *e2eEngineRun) run(db *exec.DB, rep int) {
	if e.err != nil {
		return
	}
	start := time.Now()
	rows, schema, err := exec.RunOpts(nil, db, e.plan, nil, e.opts)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		e.err = err
		return
	}
	if rep == 0 || ms < e.wall {
		e.wall = ms
	}
	e.n = len(rows)
	e.fp = exec.Fingerprint(exec.Canonical(rows, schema))
}

// RunE2E optimizes and executes the end-to-end benchmark workloads over
// generated tables of about `rows` rows each, A/B-ing the row kernels
// row-at-a-time (batch size 1, fusion off) and batched, the default
// build (columnar kernels wherever the plan is column-capable), and the
// default build behind a parallel exchange at each degree. Every
// engine's result multiset is gated against the row engine's. batchSize
// 0 means the default; workers 0 means one producer per partition;
// degrees defaults to {2, 4, 8}.
func RunE2E(cfg Config, rows int64, batchSize, workers int, degrees []int) E2EResult {
	cfg = cfg.Defaults()
	if len(degrees) == 0 {
		degrees = []int{2, 4, 8}
	}
	if rows <= 0 {
		rows = 1_000_000
	}
	src := datagen.New(cfg.Seed)
	cat := src.ScaledCatalog(3, rows)
	db := exec.FromData(cat, src.Rows(cat))

	res := E2EResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Rows:       rows,
		BatchSize:  exec.DefaultBatchSize,
		Workers:    workers,
		Degrees:    degrees,
	}
	if batchSize > 0 {
		res.BatchSize = batchSize
	}

	for _, w := range e2eWorkloads(cat) {
		wl := E2EWorkload{Name: w.name}
		plan, optMS, err := e2ePlan(cat, relopt.DefaultConfig(), w.tree, w.required)
		if err != nil {
			panic(fmt.Sprintf("fig4: e2e optimize %s: %v", w.name, err))
		}
		wl.OptimizeMS = optMS

		// Row engine: batch size 1 and no fusion reproduce the seed
		// interpreter's one-call-one-row cost shape. Its result is the
		// baseline multiset every other engine must match. "batch" keeps
		// the row kernels and moves batches; "columnar" is what ships, the
		// default build.
		engines := []*e2eEngineRun{
			{name: "row", plan: plan, opts: exec.Options{BatchSize: 1, NoFusion: true}},
			{name: "batch", plan: plan, opts: exec.Options{BatchSize: batchSize, NoFusion: true}},
			{name: "columnar", plan: plan, opts: exec.Options{BatchSize: batchSize}},
		}
		for _, d := range degrees {
			name := fmt.Sprintf("exchange(%d)", d)
			parCfg := relopt.DefaultConfig()
			parCfg.Parallel = true
			parCfg.Degree = d
			pplan, _, err := e2ePlan(cat, parCfg, w.tree, relopt.HashPartitioned(w.partCol, d))
			if err != nil {
				// The parallel model has no plan for this workload at
				// this degree; record and move on rather than fail the
				// experiment. This does not count as a mismatch.
				wl.Engines = append(wl.Engines, E2EEngine{Engine: name, Error: err.Error()})
				continue
			}
			engines = append(engines, &e2eEngineRun{name: name, plan: pplan,
				opts: exec.Options{BatchSize: batchSize, ExchangeWorkers: workers}})
		}

		for rep := 0; rep < e2eReps; rep++ {
			for _, e := range engines {
				e.run(db, rep)
			}
		}

		row, batch := engines[0], engines[1]
		if row.err != nil {
			panic(fmt.Sprintf("fig4: e2e row engine %s: %v", w.name, row.err))
		}
		parFailures := wl.Engines // plans the parallel model declined
		wl.Engines = []E2EEngine{{Engine: "row", WallMS: row.wall, RowsOut: row.n, SpeedupVsRow: 1, Match: true}}
		if batch.err == nil && row.wall > 0 {
			wl.Engines[0].SpeedupVsBatch = batch.wall / row.wall
		}
		for _, e := range engines[1:] {
			out := E2EEngine{Engine: e.name, WallMS: e.wall, RowsOut: e.n}
			switch {
			case e.err != nil:
				out.Error = e.err.Error()
				res.Mismatches++
			default:
				out.Match = e.fp == row.fp
				if !out.Match {
					res.Mismatches++
				}
				if e.wall > 0 {
					out.SpeedupVsRow = row.wall / e.wall
					if batch.err == nil {
						out.SpeedupVsBatch = batch.wall / e.wall
					}
				}
			}
			wl.Engines = append(wl.Engines, out)
		}
		wl.Engines = append(wl.Engines, parFailures...)
		res.Workloads = append(res.Workloads, wl)
	}
	return res
}

// FormatE2E renders the A/B as one table per workload.
func FormatE2E(r E2EResult) string {
	out := fmt.Sprintf("End-to-end execution A/B — ~%d rows/table, batch %d, GOMAXPROCS=%d\n",
		r.Rows, r.BatchSize, r.GOMAXPROCS)
	if r.GOMAXPROCS == 1 {
		out += "(single CPU: exchange degrees >1 cannot show wall-clock speedup here)\n"
	}
	for _, wl := range r.Workloads {
		out += fmt.Sprintf("%s — optimized in %.1f ms\n", wl.Name, wl.OptimizeMS)
		out += fmt.Sprintf("  %-20s %10s %10s %8s %9s %6s\n", "engine", "wall-ms", "rows", "vs-row", "vs-batch", "match")
		for _, e := range wl.Engines {
			if e.Error != "" {
				out += fmt.Sprintf("  %-20s %s\n", e.Engine, e.Error)
				continue
			}
			match := "ok"
			if !e.Match {
				match = "FAIL"
			}
			out += fmt.Sprintf("  %-20s %10.1f %10d %7.2fx %8.2fx %6s\n",
				e.Engine, e.WallMS, e.RowsOut, e.SpeedupVsRow, e.SpeedupVsBatch, match)
		}
	}
	out += fmt.Sprintf("result mismatches: %d\n", r.Mismatches)
	return out
}
