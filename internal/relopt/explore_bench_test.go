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
// where transformation-rule exploration is about two thirds of the work
// (the traced core.explore_share of that workload reads 0.68). One
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
// optimization about 15% above the 6699 it measures with the matcher on
// recycled frames, substitutes in the memo's scratch, a congruence-closed
// memo, preboxed zero and infinite costs, and join and selection
// properties that read their inputs' column statistics instead of
// copying them (the closure-based binder over map-backed properties took
// 49118; before duplicate spellings were retired it was 7966, 7616 while
// ZeroCost boxed a fresh Cost per call, and 6887 while every property
// copied its statistics), so that gain cannot silently rot. The bytes
// are capped the same way, about 15% above the 402716 measured (485918
// with copied statistics).
func TestColdOptimizeAllocs(t *testing.T) {
	cat, qs := pinnedWorkload()
	pq := qs[3] // the first random 8-relation query
	const ceiling, byteCeiling = 7700, 463000
	if n := testing.AllocsPerRun(5, func() { optimizeCold(t, cat, pq) }); n > ceiling {
		t.Errorf("cold 8-relation optimization allocates %.0f times, ceiling %d", n, ceiling)
	}
	if n := bytesPerRun(5, func() { optimizeCold(t, cat, pq) }); n > byteCeiling {
		t.Errorf("cold 8-relation optimization allocates %.0f bytes, ceiling %d", n, byteCeiling)
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
