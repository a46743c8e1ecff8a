// Package repro's root benchmarks regenerate the measured quantities of
// the paper's evaluation as Go benchmarks:
//
//   - BenchmarkFig4Volcano / BenchmarkFig4Exodus — the solid lines of
//     Figure 4 (optimization time per query, 2-8 input relations);
//     the dashed lines (estimated plan cost) are reported as custom
//     metrics plan-cost and memo-bytes.
//   - BenchmarkAblation* — search-engine mechanism ablations (pruning,
//     failure memoization, property-directed search vs glue).
//   - BenchmarkAltProps — alternative input property combinations.
//   - BenchmarkOODB* — the object model's pointer-chase/assembly plans.
//   - BenchmarkExec* — the Volcano iterator engine executing plans.
//   - BenchmarkMemo* — search-engine micro-benchmarks.
//
// Run everything with: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/exodus"
	"repro/internal/fig4"
	"repro/internal/gen"
	"repro/internal/oodb"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

// workload pre-generates queries so benchmark loops measure
// optimization alone.
func workload(b *testing.B, n, count int) (*rel.Catalog, []datagen.Query) {
	b.Helper()
	src := datagen.New(1993)
	cat := src.Catalog(8)
	queries := make([]datagen.Query, count)
	for i := range queries {
		queries[i] = src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
	}
	return cat, queries
}

// benchmarkFig4Volcano measures Volcano optimization time per query at
// each complexity level of Figure 4, with or without the greedy seed
// planner guiding branch-and-bound.
func benchmarkFig4Volcano(b *testing.B, guided bool) {
	for n := 2; n <= 8; n++ {
		b.Run(fmt.Sprintf("rels=%d", n), func(b *testing.B) {
			cat, queries := workload(b, n, 32)
			// The model is immutable after construction; building it is
			// generator output, not per-query optimization work, so it
			// stays outside the measured region.
			model := relopt.New(cat, relopt.DefaultConfig())
			var opts *core.Options
			if guided {
				opts = &core.Options{Guidance: core.GuidanceOptions{SeedPlanner: model.SeedPlanner()}}
			}
			var cost float64
			var mem int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				opt := core.NewOptimizer(model, opts)
				root := opt.InsertQuery(q.Root)
				plan, err := opt.Optimize(root, relopt.SortedOn(q.OrderBy))
				if err != nil || plan == nil {
					b.Fatalf("optimize: %v", err)
				}
				cost += plan.Cost.(relopt.Cost).Total()
				mem += opt.Stats().PeakMemoBytes
			}
			b.ReportMetric(cost/float64(b.N), "plan-cost")
			b.ReportMetric(float64(mem)/float64(b.N), "memo-bytes")
		})
	}
}

// BenchmarkFig4Volcano is the production configuration: guided
// branch-and-bound seeded by the greedy join-ordering planner (the seed
// planning time is inside the measured region — it is part of each
// query's optimization).
func BenchmarkFig4Volcano(b *testing.B) { benchmarkFig4Volcano(b, true) }

// BenchmarkFig4VolcanoUnguided is the cold-start A/B counterpart: plain
// exhaustive search with no seed plan.
func BenchmarkFig4VolcanoUnguided(b *testing.B) { benchmarkFig4Volcano(b, false) }

// BenchmarkFig4Exodus measures the EXODUS-style baseline on the same
// workload; the growing gap to BenchmarkFig4Volcano is Figure 4's upper
// solid line.
func BenchmarkFig4Exodus(b *testing.B) {
	for n := 2; n <= 8; n++ {
		b.Run(fmt.Sprintf("rels=%d", n), func(b *testing.B) {
			cat, queries := workload(b, n, 32)
			var cost float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				opt := exodus.New(cat, exodus.Config{Timeout: time.Minute})
				_, c, err := opt.Optimize(q.Root, q.OrderBy)
				if err != nil {
					b.Fatalf("optimize: %v", err)
				}
				cost += c.Total()
			}
			b.ReportMetric(cost/float64(b.N), "plan-cost")
		})
	}
}

// benchmarkAblation measures one engine configuration at a fixed
// complexity level.
func benchmarkAblation(b *testing.B, opts core.Options) {
	const rels = 6
	cat, queries := workload(b, rels, 32)
	model := relopt.New(cat, relopt.DefaultConfig())
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		o := opts
		opt := core.NewOptimizer(model, &o)
		root := opt.InsertQuery(q.Root)
		plan, err := opt.Optimize(root, relopt.SortedOn(q.OrderBy))
		if err != nil || plan == nil {
			b.Fatalf("optimize: %v", err)
		}
		cost += plan.Cost.(relopt.Cost).Total()
	}
	b.ReportMetric(cost/float64(b.N), "plan-cost")
}

// BenchmarkAblationDefault is the reference configuration (6 relations).
func BenchmarkAblationDefault(b *testing.B) { benchmarkAblation(b, core.Options{}) }

// BenchmarkAblationNoPruning disables branch-and-bound.
func BenchmarkAblationNoPruning(b *testing.B) {
	benchmarkAblation(b, core.Options{Search: core.SearchOptions{NoPruning: true}})
}

// BenchmarkAblationNoFailureMemo disables memoized failures.
func BenchmarkAblationNoFailureMemo(b *testing.B) {
	benchmarkAblation(b, core.Options{Search: core.SearchOptions{NoFailureMemo: true}})
}

// BenchmarkAblationGlueMode uses the Starburst-style strategy.
func BenchmarkAblationGlueMode(b *testing.B) {
	benchmarkAblation(b, core.Options{Search: core.SearchOptions{GlueMode: true}})
}

// BenchmarkAltProps runs the alternative-input-combinations experiment.
func BenchmarkAltProps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := fig4.RunAltProps()
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkOODBOptimize measures optimization of path-expression
// queries in the object model.
func BenchmarkOODBOptimize(b *testing.B) {
	cat := oodb.NewCatalog()
	company := cat.AddClass("Company", 10, 400)
	division := cat.AddClass("Division", 100, 300)
	dept := cat.AddClass("Dept", 1000, 200)
	emp := cat.AddClass("Emp", 10000, 150)
	cat.AddScalar(emp, "age", 50)
	cat.AddRef(emp, "dept", dept)
	cat.AddRef(dept, "division", division)
	cat.AddRef(division, "company", company)
	model := oodb.New(cat, oodb.DefaultParams())
	build := func() *core.ExprTree {
		t := core.Node(&oodb.GetSet{Cls: emp})
		for _, s := range []string{"dept", "division", "company"} {
			t = core.Node(&oodb.Materialize{Attr: s}, t)
		}
		return t
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.NewOptimizer(model, nil)
		root := opt.InsertQuery(build())
		if plan, err := opt.Optimize(root, nil); err != nil || plan == nil {
			b.Fatalf("optimize: %v", err)
		}
	}
}

// BenchmarkExecJoinPlan measures end-to-end execution of an optimized
// two-way join on the iterator engine.
func BenchmarkExecJoinPlan(b *testing.B) {
	src := datagen.New(5)
	cat := src.Catalog(2)
	db := exec.FromData(cat, src.Rows(cat))
	q := src.SelectJoinQuery(cat, 2, datagen.ShapeChain)
	model := relopt.New(cat, relopt.DefaultConfig())
	opt := core.NewOptimizer(model, nil)
	root := opt.InsertQuery(q.Root)
	plan, err := opt.Optimize(root, relopt.SortedOn(q.OrderBy))
	if err != nil || plan == nil {
		b.Fatalf("optimize: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := exec.Run(db, plan)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkExecParallelPlan measures gathered partition-parallel
// execution with the exchange operator.
func BenchmarkExecParallelPlan(b *testing.B) {
	src := datagen.New(6)
	cat := src.Catalog(2)
	db := exec.FromData(cat, src.Rows(cat))
	q := src.SelectJoinQuery(cat, 2, datagen.ShapeChain)
	cfg := relopt.DefaultConfig()
	cfg.Parallel = true
	cfg.Degree = 4
	model := relopt.New(cat, cfg)
	opt := core.NewOptimizer(model, nil)
	root := opt.InsertQuery(q.Root)
	plan, err := opt.Optimize(root, relopt.HashPartitioned(q.Joins[0][0], 4))
	if err != nil || plan == nil {
		b.Fatalf("optimize: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Run(db, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoInsert measures raw memo insertion (hash table of
// expressions and equivalence classes).
func BenchmarkMemoInsert(b *testing.B) {
	src := datagen.New(7)
	cat := src.Catalog(8)
	q := src.SelectJoinQuery(cat, 8, datagen.ShapeRandom)
	model := relopt.New(cat, relopt.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.NewOptimizer(model, nil)
		opt.InsertQuery(q.Root)
	}
}

// BenchmarkMemoExplore measures pure logical exploration to rule
// fixpoint (no cost analysis) of an 8-relation query.
func BenchmarkMemoExplore(b *testing.B) {
	src := datagen.New(8)
	cat := src.Catalog(8)
	q := src.SelectJoinQuery(cat, 8, datagen.ShapeRandom)
	model := relopt.New(cat, relopt.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.NewOptimizer(model, nil)
		root := opt.InsertQuery(q.Root)
		if err := opt.ExploreCtx(context.Background(), root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicOptimize measures dynamic-plan generation (four
// selectivity buckets) for a parameterized join query.
func BenchmarkDynamicOptimize(b *testing.B) {
	src := datagen.New(77)
	cat := src.Catalog(2)
	st := mustParse(b, cat,
		"SELECT R1.id, R1.jb, R2.v FROM R1, R2 WHERE R1.jb = R2.jb AND R1.v < $1 ORDER BY R1.jb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required, nil)
		if err != nil || res.Plan == nil {
			b.Fatalf("dynamic optimize: %v", err)
		}
	}
}

// BenchmarkGenerate measures the optimizer generator end to end:
// parsing a model specification and emitting formatted Go source.
func BenchmarkGenerate(b *testing.B) {
	src, err := os.ReadFile("internal/gen/testdata/minirel.model")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := gen.Parse(string(src))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecExternalSort measures the external sort (run formation +
// single-level merge) over 100k rows.
func BenchmarkExecExternalSort(b *testing.B) {
	cat := rel.NewCatalog()
	tab := cat.AddTable("t", 100000, 16)
	c1 := cat.AddColumn(tab, "a", 100000, 1, 100000)
	cat.AddColumn(tab, "b", 100, 1, 100)
	rows := make([]exec.Row, 100000)
	for i := range rows {
		rows[i] = exec.Row{int64((i * 2654435761) % 100000), int64(i % 100)}
	}
	table := exec.NewTable("t", exec.NewSchema(tab.Columns), rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := exec.NewSort(exec.NewColScan(table), table.Schema, []relopt.OrderCol{{Col: c1}})
		out, err := exec.Collect(s)
		if err != nil || len(out) != len(rows) {
			b.Fatalf("sort: %v (%d rows)", err, len(out))
		}
	}
}

// mustParse parses SQL for benchmarks.
func mustParse(b *testing.B, cat *rel.Catalog, sql string) *sqlish.Statement {
	b.Helper()
	st, err := sqlish.Parse(cat, sql)
	if err != nil {
		b.Fatal(err)
	}
	return st
}
