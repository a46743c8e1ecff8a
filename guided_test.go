// Root-level A/B tests for guided branch-and-bound: seeding the search
// with a greedy plan's cost must be invisible in the plans found —
// byte-identical costs to unguided exhaustive search — while cutting
// the work the search performs.
package repro

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relopt"
)

// TestGuidedMatchesUnguided: across randomized select-join queries at
// 2-8 relations, guided search returns exactly the unguided optimum,
// and in aggregate performs fewer rule-match calls.
func TestGuidedMatchesUnguided(t *testing.T) {
	src := datagen.New(73)
	cat := src.Catalog(8)
	model := relopt.New(cat, relopt.DefaultConfig())

	var guidedMatches, plainMatches int
	for n := 2; n <= 8; n++ {
		perLevel := 4
		if n >= 7 {
			perLevel = 2
		}
		for q := 0; q < perLevel; q++ {
			query := src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
			name := fmt.Sprintf("rels=%d q=%d", n, q)
			required := relopt.SortedOn(query.OrderBy)

			plain := core.NewOptimizer(model, nil)
			pp, err := plain.Optimize(plain.InsertQuery(query.Root), required)
			if err != nil || pp == nil {
				t.Fatalf("%s unguided: plan=%v err=%v", name, pp, err)
			}

			guided := core.NewOptimizer(model, &core.Options{
				Guidance: core.GuidanceOptions{SeedPlanner: model.SeedPlanner()},
			})
			pg, err := guided.Optimize(guided.InsertQuery(query.Root), required)
			if err != nil || pg == nil {
				t.Fatalf("%s guided: plan=%v err=%v", name, pg, err)
			}

			cu := pp.Cost.(relopt.Cost).Total()
			cg := pg.Cost.(relopt.Cost).Total()
			if cg != cu {
				t.Errorf("%s: guided cost %v != unguided %v", name, cg, cu)
			}
			gs := guided.Stats()
			if gs.SeedCost == nil {
				t.Errorf("%s: seed planner declined on an in-scope query", name)
			} else if sc := gs.SeedCost.(relopt.Cost).Total(); sc < cu {
				t.Errorf("%s: seed cost %v below optimum %v — seed not achievable", name, sc, cu)
			}
			if gs.LimitStages != 1 {
				t.Errorf("%s: LimitStages = %d, want 1 (achievable seed)", name, gs.LimitStages)
			}
			if gs.ConsistencyViolations != 0 || plain.Stats().ConsistencyViolations != 0 {
				t.Errorf("%s: consistency violations", name)
			}
			guidedMatches += gs.MatchCalls
			plainMatches += plain.Stats().MatchCalls
		}
	}
	if guidedMatches > plainMatches {
		t.Fatalf("guided match calls %d above unguided %d — the bound added work", guidedMatches, plainMatches)
	}
	t.Logf("match calls: guided=%d unguided=%d (%.1f%%)",
		guidedMatches, plainMatches, 100*float64(guidedMatches)/float64(plainMatches))
}

// TestGuidedParallelMatchesSerial: guidance is safe to share across
// concurrent optimizers, the way vdb serves concurrent requests from one
// Options value — goroutines, each with its own optimizer, share one
// model and one guided Options (and so one SeedPlanner closure), and
// every plan still matches serial unguided search to the last bit. Run
// under -race this also checks the sharing for data races.
func TestGuidedParallelMatchesSerial(t *testing.T) {
	src := datagen.New(29)
	cat := src.Catalog(7)
	model := relopt.New(cat, relopt.DefaultConfig())

	var queries []datagen.Query
	for n := 2; n <= 7; n++ {
		for q := 0; q < 3; q++ {
			queries = append(queries, src.SelectJoinQuery(cat, n, datagen.ShapeRandom))
		}
	}

	serial := make([]uint64, len(queries))
	for i, q := range queries {
		opt := core.NewOptimizer(model, nil)
		plan, err := opt.Optimize(opt.InsertQuery(q.Root), relopt.SortedOn(q.OrderBy))
		if err != nil || plan == nil {
			t.Fatalf("serial optimize %d: %v", i, err)
		}
		serial[i] = math.Float64bits(plan.Cost.(relopt.Cost).Total())
	}

	guidedOpts := &core.Options{Guidance: core.GuidanceOptions{SeedPlanner: model.SeedPlanner()}}
	plans := make([]*core.Plan, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q datagen.Query) {
			defer wg.Done()
			opt := core.NewOptimizer(model, guidedOpts)
			plans[i], errs[i] = opt.Optimize(opt.InsertQuery(q.Root), relopt.SortedOn(q.OrderBy))
		}(i, q)
	}
	wg.Wait()
	for i, plan := range plans {
		if errs[i] != nil || plan == nil {
			t.Fatalf("query %d: plan=%v err=%v", i, plan, errs[i])
		}
		if got := math.Float64bits(plan.Cost.(relopt.Cost).Total()); got != serial[i] {
			t.Errorf("query %d: concurrent guided cost bits %#x != serial unguided bits %#x", i, got, serial[i])
		}
	}
}
