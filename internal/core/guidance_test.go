package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// newGuidedToyOpt builds a toy optimizer with the given seed planner.
func newGuidedToyOpt(sp core.SeedPlanner, extra func(*core.Options)) *core.Optimizer {
	opts := &core.Options{Guidance: core.GuidanceOptions{SeedPlanner: sp}}
	if extra != nil {
		extra(opts)
	}
	return core.NewOptimizer(&toyModel{}, opts)
}

// TestGuidedSyntacticSeedMatchesExhaustive: the generic syntactic seed
// planner leaves plan costs byte-identical to unguided search on random
// shapes, for both the vacuous and a colored requirement, while the
// telemetry records the seed.
func TestGuidedSyntacticSeedMatchesExhaustive(t *testing.T) {
	check := func(s toyShape) bool {
		guided := newGuidedToyOpt(core.SyntacticSeedPlanner(), nil)
		g := guided.InsertQuery(s.tree)
		plan, err := guided.Optimize(g, toyColor(1))
		coretest.CheckMemo(t, guided)
		if err != nil || plan == nil {
			return false
		}
		if plan.Cost.(toyCost) != toyOptimum(s.leaves, true) {
			t.Logf("guided cost %v, want %v (leaves=%d)", plan.Cost, toyOptimum(s.leaves, true), s.leaves)
			return false
		}
		st := guided.Stats()
		if st.SeedCost == nil || st.LimitStages < 1 {
			t.Logf("telemetry missing: seed=%v stages=%d", st.SeedCost, st.LimitStages)
			return false
		}
		// The syntactic seed is achievable, so its cost bounds the
		// optimum from above and the first (inclusive) stage suffices.
		if plan.Cost.(toyCost) > st.SeedCost.(toyCost) {
			t.Logf("optimum %v above seed %v", plan.Cost, st.SeedCost)
			return false
		}
		return st.LimitStages == 1 && st.ConsistencyViolations == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGuidedSeedEqualsOptimal is the inclusive-bound regression test: a
// seed whose cost is exactly the optimal cost must not prune the optimal
// plan away, and the zero-budget child goals it produces (partial cost
// equal to the limit) must not fail spuriously.
func TestGuidedSeedEqualsOptimal(t *testing.T) {
	tree := leftDeepPair("a", "b", "c", "d")
	want := toyOptimum(4, true)

	opt := newGuidedToyOpt(func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
		return &core.SeedPlan{Cost: want, Desc: "oracle"}
	}, nil)
	g := opt.InsertQuery(tree)
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatalf("seed equal to optimum pruned the optimal plan away")
	}
	if plan.Cost.(toyCost) != want {
		t.Fatalf("cost %v, want %v", plan.Cost, want)
	}
	st := opt.Stats()
	if st.LimitStages != 1 {
		t.Errorf("LimitStages = %d, want 1 (exact seed must succeed in the first stage)", st.LimitStages)
	}
	if st.SeedCost.(toyCost) != want {
		t.Errorf("SeedCost = %v, want %v", st.SeedCost, want)
	}
}

// TestGuidedUnderestimatingSeedRelaxes: a seeder that lies low costs
// exactly one more stage — the seeded stage fails, its failures are
// memoized, and a second stage at the caller's limit reuses them — and
// the result is still exactly the exhaustive optimum.
func TestGuidedUnderestimatingSeedRelaxes(t *testing.T) {
	tree := leftDeepPair("a", "b", "c", "d", "e")
	want := toyOptimum(5, true) // 5 + 2*4 + 4 = 17

	for _, memo := range []bool{false, true} {
		opt := newGuidedToyOpt(func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
			return &core.SeedPlan{Cost: toyCost(0.5), Desc: "liar"}
		}, func(opts *core.Options) {
			opts.Search.NoFailureMemo = !memo
		})
		g := opt.InsertQuery(tree)
		plan, err := opt.Optimize(g, toyColor(1))
		coretest.CheckMemo(t, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil || plan.Cost.(toyCost) != want {
			t.Fatalf("memo=%v: plan=%v, want cost %v", memo, plan, want)
		}
		st := opt.Stats()
		// The seeded stage at 0.5 fails (every complete plan costs
		// >= 17); the stage at the caller's limit wins.
		if st.LimitStages != 2 {
			t.Errorf("memo=%v: LimitStages = %d, want 2", memo, st.LimitStages)
		}
		if st.GoalsPruned == 0 {
			t.Errorf("memo=%v: no goals recorded as bound-failures despite a failing stage", memo)
		}
	}
}

// TestGuidedSeedDeclines: a planner returning nil degrades to plain
// exhaustive search with identical results.
func TestGuidedSeedDeclines(t *testing.T) {
	tree := leftDeepPair("a", "b", "c")
	opt := newGuidedToyOpt(func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
		return nil
	}, nil)
	g := opt.InsertQuery(tree)
	plan, err := opt.Optimize(g, toyColor(2))
	coretest.CheckMemo(t, opt)
	if err != nil || plan == nil {
		t.Fatalf("plan=%v err=%v", plan, err)
	}
	if plan.Cost.(toyCost) != toyOptimum(3, true) {
		t.Fatalf("cost %v, want %v", plan.Cost, toyOptimum(3, true))
	}
	st := opt.Stats()
	if st.SeedCost != nil {
		t.Errorf("SeedCost = %v, want nil for a declined seed", st.SeedCost)
	}
	if st.LimitStages != 1 {
		t.Errorf("LimitStages = %d, want 1", st.LimitStages)
	}
}

// TestGuidedWithCallerLimit: a caller limit tighter than the seed takes
// precedence (single unguided stage), and a caller limit below the
// optimum still yields no plan under guidance.
func TestGuidedWithCallerLimit(t *testing.T) {
	tree := leftDeepPair("a", "b", "c")
	want := toyOptimum(3, true) // 11

	seeder := func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
		return &core.SeedPlan{Cost: toyCost(1e6)}
	}

	opt := newGuidedToyOpt(seeder, nil)
	g := opt.InsertQuery(tree)
	plan, err := opt.OptimizeWithLimitCtx(context.Background(), g, toyColor(1), want)
	coretest.CheckMemo(t, opt)
	if err != nil || plan == nil || plan.Cost.(toyCost) != want {
		t.Fatalf("inclusive caller limit: plan=%v err=%v want=%v", plan, err, want)
	}

	opt = newGuidedToyOpt(seeder, nil)
	g = opt.InsertQuery(tree)
	plan, err = opt.OptimizeWithLimitCtx(context.Background(), g, toyColor(1), want-1)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatalf("limit below optimum returned plan %v", plan)
	}
}

// guidedShape feeds the property test below larger trees than toyShape.
type guidedShape struct {
	tree   *core.ExprTree
	leaves int
}

func (guidedShape) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2 + r.Intn(7)
	var build func(lo, hi int) *core.ExprTree
	build = func(lo, hi int) *core.ExprTree {
		if hi-lo == 1 {
			return leaf(string(rune('a' + lo)))
		}
		cut := lo + 1 + r.Intn(hi-lo-1)
		return pair(build(lo, cut), build(cut, hi))
	}
	return reflect.ValueOf(guidedShape{tree: build(0, n), leaves: n})
}

// TestQuickGuidedTelemetryConsistent: across random shapes and random
// (possibly wrong) seed costs, guided search always returns the optimum,
// and the telemetry counters stay coherent: stages at least 1, skipped
// moves within the pruned total.
func TestQuickGuidedTelemetryConsistent(t *testing.T) {
	check := func(s guidedShape, seedScale uint8) bool {
		scale := 0.25 + float64(seedScale%8)*0.25 // 0.25x .. 2x of optimum
		want := toyOptimum(s.leaves, true)
		opt := newGuidedToyOpt(func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
			return &core.SeedPlan{Cost: toyCost(float64(want) * scale)}
		}, nil)
		g := opt.InsertQuery(s.tree)
		plan, err := opt.Optimize(g, toyColor(1))
		coretest.CheckMemo(t, opt)
		if err != nil || plan == nil || plan.Cost.(toyCost) != want {
			t.Logf("scale=%.2f: plan=%v err=%v want=%v", scale, plan, err, want)
			return false
		}
		st := opt.Stats()
		if st.LimitStages < 1 || st.MovesSkipped > st.Pruned {
			t.Logf("scale=%.2f: stages=%d skipped=%d pruned=%d", scale, st.LimitStages, st.MovesSkipped, st.Pruned)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLimitEqualToOptimumReturnsIt: OptimizeWithLimitCtx's limit is
// inclusive, so a limit equal to the optimum's cost returns the optimum,
// unguided and guided by the syntactic seed, and the guided run finishes
// in its one seeded stage.
func TestLimitEqualToOptimumReturnsIt(t *testing.T) {
	check := func(s guidedShape, color uint8) bool {
		required := toyColor(color % 3)
		want := toyOptimum(s.leaves, required != 0)
		for _, sp := range []core.SeedPlanner{nil, core.SyntacticSeedPlanner()} {
			opt := newGuidedToyOpt(sp, nil)
			plan, err := opt.OptimizeWithLimitCtx(context.Background(), opt.InsertQuery(s.tree), required, want)
			coretest.CheckMemo(t, opt)
			if err != nil || plan == nil || plan.Cost.(toyCost) != want {
				t.Logf("guided=%v, %d leaves, %v: plan=%v err=%v want=%v", sp != nil, s.leaves, required, plan, err, want)
				return false
			}
			if st := opt.Stats(); sp != nil && st.LimitStages != 1 {
				t.Logf("%d leaves: %d limit stages, want 1", s.leaves, st.LimitStages)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
