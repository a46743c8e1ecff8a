// Root-level tests for the search engine on the relational model:
// incremental move collection must be invisible in the plans found, and
// a batch over one shared memo must find exactly the plans of
// independent optimization.
package repro

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relopt"
)

// TestRelOptIncrementalMatchesFromScratch: on the relational model —
// multi-level rules, enforcers, partitioning — incremental move
// collection finds exactly the plans of from-scratch re-matching, with
// fewer implementation-rule match attempts.
func TestRelOptIncrementalMatchesFromScratch(t *testing.T) {
	src := datagen.New(97)
	cat := src.Catalog(6)
	model := relopt.New(cat, relopt.DefaultConfig())

	var incMatches, scrMatches int
	for n := 2; n <= 6; n++ {
		for q := 0; q < 5; q++ {
			query := src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
			name := fmt.Sprintf("rels=%d q=%d", n, q)

			inc := core.NewOptimizer(model, nil)
			pi, err := inc.Optimize(inc.InsertQuery(query.Root), relopt.SortedOn(query.OrderBy))
			if err != nil || pi == nil {
				t.Fatalf("%s incremental: %v", name, err)
			}
			scr := core.NewOptimizer(model, &core.Options{Search: core.SearchOptions{NoIncremental: true}})
			ps, err := scr.Optimize(scr.InsertQuery(query.Root), relopt.SortedOn(query.OrderBy))
			if err != nil || ps == nil {
				t.Fatalf("%s from-scratch: %v", name, err)
			}
			ci := pi.Cost.(relopt.Cost).Total()
			cs := ps.Cost.(relopt.Cost).Total()
			if ci != cs {
				t.Errorf("%s: incremental cost %v != from-scratch %v", name, ci, cs)
			}
			if inc.Stats().ConsistencyViolations != 0 || scr.Stats().ConsistencyViolations != 0 {
				t.Errorf("%s: consistency violations", name)
			}
			incMatches += inc.Stats().MatchCalls
			scrMatches += scr.Stats().MatchCalls
		}
	}
	if incMatches >= scrMatches {
		t.Fatalf("incremental match calls %d not below from-scratch %d", incMatches, scrMatches)
	}
	t.Logf("match calls: incremental=%d from-scratch=%d (%.1f%%)",
		incMatches, scrMatches, 100*float64(incMatches)/float64(scrMatches))
}

// TestSharedMemoBatchMatchesIndependent: a batch over overlapping
// relational queries, optimized by OptimizeBatchCtx over one memo,
// returns per query the independently optimized cost to the last bit,
// and reports the sharing it found.
func TestSharedMemoBatchMatchesIndependent(t *testing.T) {
	src := datagen.New(53)
	cat := src.Catalog(4)
	model := relopt.New(cat, relopt.DefaultConfig())

	var queries []datagen.Query
	for q := 0; q < 4; q++ {
		queries = append(queries, src.SelectJoinQuery(cat, 3, datagen.ShapeChain))
	}
	// Duplicate one query verbatim so at least two roots collapse.
	queries = append(queries, queries[0])

	serial := make([]uint64, len(queries))
	for i, q := range queries {
		opt := core.NewOptimizer(model, nil)
		plan, err := opt.Optimize(opt.InsertQuery(q.Root), relopt.SortedOn(q.OrderBy))
		if err != nil || plan == nil {
			t.Fatalf("serial optimize %d: %v", i, err)
		}
		serial[i] = math.Float64bits(plan.Cost.(relopt.Cost).Total())
	}

	opt := core.NewOptimizer(model, nil)
	roots := make([]core.GroupID, len(queries))
	reqs := make([]core.PhysProps, len(queries))
	for i, q := range queries {
		roots[i], reqs[i] = opt.InsertQuery(q.Root), relopt.SortedOn(q.OrderBy)
	}
	plans, err := opt.OptimizeBatchCtx(context.Background(), roots, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p == nil {
			t.Fatalf("query %d: no plan", i)
		}
		if got := math.Float64bits(p.Cost.(relopt.Cost).Total()); got != serial[i] {
			t.Errorf("query %d: shared-memo cost %v (bits %#x) != serial bits %#x", i, p.Cost, got, serial[i])
		}
	}
	if opt.Stats().SharedGroups == 0 {
		t.Error("batch with a duplicate query reports no shared groups")
	}
}
