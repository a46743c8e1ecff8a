package relopt_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
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
// where transformation-rule exploration is about seven tenths of the
// work (the traced core.explore_share of that workload reads 0.70). One
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

// TestColdOptimizeAllocs caps the allocations of one cold 8-relation
// optimization about 15% above the 7610 it measures with the matcher on
// recycled frames, substitutes in the memo's scratch, slice-backed
// logical properties and a congruence-closed memo (the closure-based
// binder over map-backed properties took 49118; before duplicate
// spellings were retired it was 7966), so that gain cannot silently rot.
func TestColdOptimizeAllocs(t *testing.T) {
	cat, qs := pinnedWorkload()
	pq := qs[3] // the first random 8-relation query
	const ceiling = 8750
	if n := testing.AllocsPerRun(5, func() { optimizeCold(t, cat, pq) }); n > ceiling {
		t.Errorf("cold 8-relation optimization allocates %.0f times, ceiling %d", n, ceiling)
	}
}
