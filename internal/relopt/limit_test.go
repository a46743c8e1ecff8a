package relopt_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// TestLimitEqualToOptimumReturnsIt holds OptimizeWithLimitCtx to its
// contract: the limit is inclusive, so a limit equal to the optimum's own
// cost must return that optimum, and (nil, nil) would be a false proof
// that no plan within it exists. Branch-and-bound passes "Limit −
// TotalCost" down to every input and memoizes failures with their
// limits, which is sound only under exact cost arithmetic. The Figure 4
// generator's queries, at three seeds, 2–10 relations and every shape,
// cover enough sums that an inexact cost type misses some. Every guided
// run must also finish in its first, seeded stage: the greedy seed
// prices a real plan with the model's own formulas, so its limit is
// never below the optimum.
func TestLimitEqualToOptimumReturnsIt(t *testing.T) {
	shapes := []datagen.Shape{datagen.ShapeRandom, datagen.ShapeChain, datagen.ShapeStar}
	perCell := 10
	if testing.Short() {
		perCell = 1
	}
	var runs, missed int
	for _, seed := range []int64{1993, 1994, 20260925} {
		src := datagen.New(seed)
		cat := src.Catalog(10)
		for n := 2; n <= 10; n++ {
			for _, shape := range shapes {
				for i := 0; i < perCell; i++ {
					q := src.SelectJoinQuery(cat, n, shape)
					var required core.PhysProps
					if q.OrderBy != rel.InvalidCol {
						required = relopt.SortedOn(q.OrderBy)
					}
					runs++
					if !limitReturnsOptimum(t, cat, q, required) {
						missed++
						t.Errorf("seed %d, %d relations, %s, query %d: a limit equal to the optimum returned no plan", seed, n, shape, i)
					}
				}
			}
		}
	}
	if missed > 0 {
		t.Logf("%d of %d queries missed their optimum at an equal limit", missed, runs)
	}
}

// limitReturnsOptimum optimizes q unguided, then again under a limit
// equal to the optimum's cost, unguided and guided, and reports whether
// the limited searches returned the optimum. Guided runs, at the
// caller's infinite limit and at the optimum's, must take one stage.
func limitReturnsOptimum(t *testing.T, cat *rel.Catalog, q datagen.Query, required core.PhysProps) bool {
	t.Helper()
	model := relopt.New(cat, relopt.DefaultConfig())
	opt := core.NewOptimizer(model, nil)
	best, err := opt.Optimize(opt.InsertQuery(q.Root), required)
	if err != nil || best == nil {
		t.Fatalf("unlimited search: plan %v, err %v", best, err)
	}
	want := best.Cost.(relopt.Cost)
	ok := true
	for _, guided := range []bool{false, true} {
		opts := &core.Options{}
		if guided {
			opts.Guidance.SeedPlanner = model.SeedPlanner()
		}
		for _, limit := range []core.Cost{want, relopt.Infinite} {
			if !guided && limit == core.Cost(relopt.Infinite) {
				continue
			}
			o := core.NewOptimizer(model, opts)
			p, err := o.OptimizeWithLimitCtx(context.Background(), o.InsertQuery(q.Root), required, limit)
			if err != nil {
				t.Fatalf("guided=%v, limit %v: %v", guided, limit, err)
			}
			if p == nil {
				ok = false
				continue
			}
			if got := p.Cost.(relopt.Cost); got != want {
				t.Errorf("guided=%v, limit %v: cost %v, want the optimum %v", guided, limit, got, want)
			}
			if st := o.Stats(); guided && st.LimitStages != 1 {
				t.Errorf("guided, limit %v: %d limit stages, want 1", limit, st.LimitStages)
			}
		}
	}
	return ok
}
