package relopt_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// optimizeCold is one cold guided optimization: a fresh optimizer, the
// query inserted, the search run to completion.
func optimizeCold(tb testing.TB, cat *rel.Catalog, pq pinnedQuery) *core.Plan {
	opt := guidedOptimizer(cat, func(*core.Options) {})
	plan, err := opt.Optimize(opt.InsertQuery(pq.q.Root), pq.required)
	if err != nil || plan == nil {
		tb.Fatalf("optimize: plan=%v err=%v", plan, err)
	}
	return plan
}

var benchPlan *core.Plan

// BenchmarkExploreFig4 is the package-level handle on what the
// repository benchmark's opt-fig4 workload times: cold guided
// optimization of random select-join queries at 6, 8 and 10 relations,
// each with a model of its own (relopt.New per query, as opt-fig4
// builds it), where transformation-rule exploration (exploreGroup) is
// about 30% of the CPU time in a profile of this benchmark. One
// operation optimizes the level's three pinned queries (seed 1993), so
// ns/op, B/op and allocs/op do not depend on the iteration count.
func BenchmarkExploreFig4(b *testing.B) {
	cat, qs := pinnedWorkload()
	for level, n := range []int{6, 8, 10} {
		queries := qs[3*level : 3*level+3] // pinnedWorkload draws random 6, 8, 10 first
		b.Run(fmt.Sprintf("rel%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pq := range queries {
					benchPlan = optimizeCold(b, cat, pq)
				}
			}
		})
	}
}

// BenchmarkExploreBudgeted is the package-level handle on the repository
// benchmark's opt-budgeted workload: cold guided optimization of chain,
// star and random queries of 8, 9 and 10 relations under a 200-step
// budget, the three search policies taking turns. Exploration still runs
// to fixpoint before the budget bites, so it is most of the work. One
// operation optimizes the shape's three queries (seed 1993), one per
// level, under the guided, MCTS and widening policy in turn.
func BenchmarkExploreBudgeted(b *testing.B) {
	src := datagen.New(1993)
	cat := src.Catalog(10)
	policies := []core.SearchPolicy{core.PolicyExhaustive, core.PolicyMCTS, core.PolicyWidening}
	for _, shape := range []datagen.Shape{datagen.ShapeChain, datagen.ShapeStar, datagen.ShapeRandom} {
		var qs []pinnedQuery
		for _, n := range []int{8, 9, 10} {
			q := src.SelectJoinQuery(cat, n, shape)
			pq := pinnedQuery{q: q}
			if q.OrderBy != rel.InvalidCol {
				pq.required = relopt.SortedOn(q.OrderBy)
			}
			qs = append(qs, pq)
		}
		b.Run(shape.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, pq := range qs {
					opt := guidedOptimizer(cat, func(o *core.Options) {
						o.Budget = core.Budget{MaxSteps: 200}
						o.Search.Policy = policies[j]
						o.Search.RandSeed = 1993
					})
					plan, err := opt.Optimize(opt.InsertQuery(pq.q.Root), pq.required)
					if plan == nil || err != nil && !errors.Is(err, core.ErrBudget) {
						b.Fatalf("optimize: plan=%v err=%v", plan, err)
					}
					benchPlan = plan
				}
			}
		})
	}
}

// TestColdOptimizeAllocs caps the allocations of one cold 8-relation
// optimization about 10% above the 1291 and 112912 bytes it measures
// with each goal's moves collected onto the memo's move stack and the
// model's rule tables shared by its structural configuration (ceilings
// 1780 and 143600 before, over 1618 and 130528 bytes measured with a
// move set cached per class and requirement and rules built per model;
// 2120 and 151200 before typed cost callbacks, which return the cost
// type by value, and input plan vectors made only for offered plans,
// over 1926 and 137472 bytes measured when rule costs came back boxed;
// 3044 and 157568 before the search was instantiated for the cost type,
// when every Add and Sub boxed its result through the cost interface;
// 4811 and 249114 before each class matched its implementation rules
// once for all requirements and the memo kept its expressions, bindings
// and matches in slabs; the closure-based binder over map-backed
// properties took 49118 allocations, and 7966 before duplicate
// spellings were retired), so that gain cannot silently rot. A
// 3-relation chain — a point-churn statement's shape — is capped the
// same way (317 allocations and 22768 bytes; ceilings 562 and 32900
// before, over 511 and 29856 with move sets and rules per model; 615
// and 34400 before that, over 557 and 31248 with boxed rule costs; 710
// and 34112 with boxed arithmetic, 861 and 47024 before that), so memo
// storage sized for large searches cannot inflate small ones. Run with
// -v to read the measurements.
func TestColdOptimizeAllocs(t *testing.T) {
	cat, qs := pinnedWorkload()
	src := datagen.New(1993)
	cat3 := src.Catalog(3)
	chain := pinnedQuery{q: src.SelectJoinQuery(cat3, 3, datagen.ShapeChain)}
	if chain.q.OrderBy != rel.InvalidCol {
		chain.required = relopt.SortedOn(chain.q.OrderBy)
	}
	for _, c := range []struct {
		name               string
		cat                *rel.Catalog
		pq                 pinnedQuery
		ceiling, byteLimit float64
	}{
		{"8-relation random", cat, qs[3], 1420, 124200}, // the first random 8-relation query
		{"3-relation chain", cat3, chain, 349, 25050},
	} {
		n := testing.AllocsPerRun(5, func() { optimizeCold(t, c.cat, c.pq) })
		bytes := bytesPerRun(5, func() { optimizeCold(t, c.cat, c.pq) })
		t.Logf("cold %s optimization: %.0f allocations, %.0f bytes", c.name, n, bytes)
		if n > c.ceiling {
			t.Errorf("cold %s optimization allocates %.0f times, ceiling %.0f", c.name, n, c.ceiling)
		}
		if bytes > c.byteLimit {
			t.Errorf("cold %s optimization allocates %.0f bytes, ceiling %.0f", c.name, bytes, c.byteLimit)
		}
	}
}

// TestModelNewAllocs caps relopt.New at the model and its three slices
// of sorted vectors: rules, patterns and enforcers are built once per
// structural configuration and shared, so a model of a configuration
// already seen allocates 4 times over the 10-table benchmark catalog
// (161 allocations and 8 144 bytes when every New built its own rules).
func TestModelNewAllocs(t *testing.T) {
	cat := datagen.New(1993).Catalog(10)
	relopt.New(cat, relopt.DefaultConfig())
	if n := testing.AllocsPerRun(100, func() { relopt.New(cat, relopt.DefaultConfig()) }); n > 4 {
		t.Errorf("relopt.New allocates %.0f times, ceiling 4", n)
	}
}

// TestCostCallbacksAllocateNothing: the join rules' and the sort
// enforcer's cost functions return relopt.Cost by value, so the search
// prices a move without allocating.
func TestCostCallbacksAllocateNothing(t *testing.T) {
	src := datagen.New(1993)
	cat := src.Catalog(2)
	m := relopt.New(cat, relopt.DefaultConfig())
	opt := core.NewOptimizer(m, nil)
	opt.InsertQuery(src.SelectJoinQuery(cat, 2, datagen.ShapeChain).Root)
	ctx := &core.RuleContext{Memo: opt.Memo(), Model: m}
	var join *core.Binding
	var col rel.ColID
	opt.Memo().Groups(func(g *core.Group) {
		for _, e := range g.Exprs() {
			if j, ok := e.Op.(*rel.Join); ok && join == nil {
				join = &core.Binding{Expr: e, Group: g.ID(),
					Children: []*core.Binding{{Group: e.Inputs[0]}, {Group: e.Inputs[1]}}}
				col = j.A
			}
		}
	})
	if join == nil {
		t.Fatal("the query has no join")
	}
	priced := 0
	for _, r := range m.ImplementationRules() {
		if r.Name != "join->merge-join" && r.Name != "join->hybrid-hash-join" {
			continue
		}
		alts, ok := r.Applicability(ctx, join, relopt.Any)
		if !ok || len(alts) == 0 {
			t.Fatalf("%s does not apply to the join", r.Name)
		}
		cost := r.Cost.(core.AlgCostFunc[relopt.Cost])
		if n := testing.AllocsPerRun(100, func() { cost(ctx, join, relopt.Any, alts[0]) }); n != 0 {
			t.Errorf("%s's cost function allocates %.1f times per call, want 0", r.Name, n)
		}
		priced++
	}
	for _, e := range m.Enforcers() {
		if e.Name != "sort" {
			continue
		}
		cost, lp, sorted := e.Cost.(core.EnfCostFunc[relopt.Cost]), opt.Memo().Group(join.Group).LogicalProps(), relopt.SortedOn(col)
		if n := testing.AllocsPerRun(100, func() { cost(ctx, lp, sorted) }); n != 0 {
			t.Errorf("the sort enforcer's cost function allocates %.1f times per call, want 0", n)
		}
		priced++
	}
	if priced != 3 {
		t.Fatalf("priced %d cost functions, want the two joins and the sort", priced)
	}
}

// TestMemoryBytesTracksRetainedHeap holds Memo.MemoryBytes to what an
// optimization leaves on the heap: over the pinned queries, each
// optimized cold after a warm-up and kept alive across a GC, the memo's
// measured size is between 55% and 85% of the heap the optimizer
// retains (71% when the bound was set). The rest is what MemoryBytes
// excludes: the model, logical and physical properties, costs and
// physical operators.
func TestMemoryBytesTracksRetainedHeap(t *testing.T) {
	cat, qs := pinnedWorkload()
	var memo, heap float64
	for i, pq := range append(qs[:1:1], qs...) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		opt := guidedOptimizer(cat, func(*core.Options) {})
		if _, err := opt.Optimize(opt.InsertQuery(pq.q.Root), pq.required); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first run warms up the heap
			memo += float64(opt.Memo().MemoryBytes())
			heap += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		}
		runtime.KeepAlive(opt)
	}
	if r := memo / heap; r < 0.55 || r > 0.85 {
		t.Errorf("MemoryBytes sums to %.0f bytes, %.2f of the %.0f the optimizers retain; want 0.55 to 0.85", memo, r, heap)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
