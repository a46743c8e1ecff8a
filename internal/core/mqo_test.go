package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// mqoTrees builds a randomized overlapping batch of left-deep toy
// queries over a small leaf pool: with five leaves and many trees,
// prefixes collide constantly, which is exactly the sharing the batch
// path must keep correct.
func mqoTrees(seed int64, n int) []*core.ExprTree {
	rng := rand.New(rand.NewSource(seed))
	pool := []string{"a", "b", "c", "d", "e"}
	trees := make([]*core.ExprTree, n)
	for i := range trees {
		k := 2 + rng.Intn(len(pool)-1)
		names := make([]string, k)
		perm := rng.Perm(len(pool))
		for j := 0; j < k; j++ {
			names[j] = pool[perm[j]]
		}
		trees[i] = leftDeepPair(names...)
	}
	return trees
}

// costBits is a toy plan's cost as its float64 bit pattern: batch and
// per-root optimization run the same engine, so their costs must agree
// to the last bit, not within a tolerance.
func costBits(p *core.Plan) uint64 { return math.Float64bits(float64(p.Cost.(toyCost))) }

// optimizeAlone optimizes each tree on a fresh optimizer under its
// requirement (reqs may be nil or short, meaning none) and returns the
// cost bits.
func optimizeAlone(t *testing.T, trees []*core.ExprTree, reqs []core.PhysProps) []uint64 {
	t.Helper()
	want := make([]uint64, len(trees))
	for i, tree := range trees {
		var req core.PhysProps
		if i < len(reqs) {
			req = reqs[i]
		}
		o := core.NewOptimizer(&toyModel{}, nil)
		p, err := o.Optimize(o.InsertQuery(tree), req)
		coretest.CheckMemo(t, o)
		if err != nil || p == nil {
			t.Fatalf("alone %d: plan=%v err=%v", i, p, err)
		}
		want[i] = costBits(p)
	}
	return want
}

// TestInsertOrderIndependence: inserting randomized overlapping trees
// into one memo must produce the same group count and the same optimal
// costs in any insertion order.
func TestInsertOrderIndependence(t *testing.T) {
	trees := mqoTrees(7, 12)
	rng := rand.New(rand.NewSource(11))
	wantGroups := -1
	var wantCosts []uint64
	for perm := 0; perm < 4; perm++ {
		order := rng.Perm(len(trees))
		if perm == 0 {
			for i := range order {
				order[i] = i
			}
		}
		o := core.NewOptimizer(&toyModel{}, nil)
		roots := make([]core.GroupID, len(trees))
		for _, i := range order {
			roots[i] = o.InsertQuery(trees[i])
		}
		groups := o.Stats().Groups
		costs := make([]uint64, len(trees))
		for i, root := range roots {
			p, err := o.Optimize(root, nil)
			coretest.CheckMemo(t, o)
			if err != nil || p == nil {
				t.Fatalf("perm %d tree %d: plan=%v err=%v", perm, i, p, err)
			}
			costs[i] = costBits(p)
		}
		if wantGroups < 0 {
			wantGroups, wantCosts = groups, costs
			continue
		}
		if groups != wantGroups {
			t.Errorf("perm %d: %d groups, want %d", perm, groups, wantGroups)
		}
		for i := range costs {
			if costs[i] != wantCosts[i] {
				t.Errorf("perm %d tree %d: cost bits %#x, want %#x", perm, i, costs[i], wantCosts[i])
			}
		}
	}
}

// TestOptimizeBatchMatchesSingle: a batch over one shared memo finds,
// for every root, a plan of bit-identical cost to a single-root
// optimization — under a full requirement slice, a nil one, and one
// shorter than the roots (missing entries mean no requirement). An exact
// duplicate tree collapses to its original's root on insertion and needs
// no special casing.
func TestOptimizeBatchMatchesSingle(t *testing.T) {
	trees := mqoTrees(19, 8)
	trees = append(trees, trees[0])
	full := make([]core.PhysProps, len(trees))
	for i := range full {
		full[i] = toyColor(1)
	}
	for name, reqs := range map[string][]core.PhysProps{"full": full, "nil": nil, "short": full[:3]} {
		want := optimizeAlone(t, trees, reqs)
		o := core.NewOptimizer(&toyModel{}, nil)
		roots := make([]core.GroupID, len(trees))
		for i, tree := range trees {
			roots[i] = o.InsertQuery(tree)
		}
		plans, err := o.OptimizeBatchCtx(context.Background(), roots, reqs)
		coretest.CheckMemo(t, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range plans {
			if p == nil {
				t.Fatalf("%s root %d: no plan", name, i)
			}
			if got := costBits(p); got != want[i] {
				t.Errorf("%s root %d: cost %v (bits %#x), want bits %#x", name, i, p.Cost, got, want[i])
			}
		}
		if o.Stats().SharedGroups == 0 {
			t.Errorf("%s: overlapping batch reports no shared groups", name)
		}
	}
}

// TestOptimizeBatchBudgetStop: a step budget that runs out inside the
// second root leaves the first root's plan optimal, degrades every later
// root to an anytime plan covering its requirement, and surfaces the
// typed budget error.
func TestOptimizeBatchBudgetStop(t *testing.T) {
	trees := []*core.ExprTree{
		leftDeepPair("a", "b", "c"),
		leftDeepPair("d", "e", "f", "g", "h"),
		leftDeepPair("h", "g", "a"),
	}
	reqs := []core.PhysProps{toyColor(1), toyColor(2), toyColor(3)}
	want := optimizeAlone(t, trees, reqs)

	first := core.NewOptimizer(&toyModel{}, nil)
	if _, err := first.Optimize(first.InsertQuery(trees[0]), reqs[0]); err != nil {
		t.Fatal(err)
	}
	opts := &core.Options{}
	opts.Budget.MaxSteps = first.Stats().Steps() + 3
	o := core.NewOptimizer(&toyModel{}, opts)
	roots := make([]core.GroupID, len(trees))
	for i, tree := range trees {
		roots[i] = o.InsertQuery(tree)
	}
	plans, err := o.OptimizeBatchCtx(context.Background(), roots, reqs)
	coretest.CheckMemo(t, o)
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if !errors.Is(o.Stats().StopReason, core.ErrStepBudget) {
		t.Errorf("StopReason = %v, want ErrStepBudget", o.Stats().StopReason)
	}
	if plans[0] == nil || costBits(plans[0]) != want[0] {
		t.Errorf("root 0 decided before the stop: plan %v, want cost bits %#x", plans[0], want[0])
	}
	for i := 1; i < len(plans); i++ {
		p := plans[i]
		if p == nil {
			t.Fatalf("root %d: no anytime plan", i)
		}
		if !p.Delivered.Covers(reqs[i]) {
			t.Errorf("root %d: anytime plan delivers %v, not covering %v", i, p.Delivered, reqs[i])
		}
		if costBits(p) < want[i] {
			t.Errorf("root %d: anytime plan %v undercuts the optimum", i, p.Cost)
		}
	}
	if !o.Stats().AnytimeFallback {
		t.Errorf("no root took the anytime fallback; the budget did not stop the batch early")
	}
}

// TestOptimizeBatchMoveFilterMatchesSingle: FindBestPlan applies
// Search.MoveFilter in its own move collection, so a batch under a
// truncating filter finds, per root, plans of exactly the cost per-root
// optimization finds under the same filter — costs the filter has moved
// away from the exhaustive optimum.
func TestOptimizeBatchMoveFilterMatchesSingle(t *testing.T) {
	opts := &core.Options{Search: core.SearchOptions{
		NoIncremental: true, // MoveFilter requires the full-recollection path
		MoveFilter: func(moves []core.Move) []core.Move {
			if len(moves) > 2 {
				return moves[:2]
			}
			return moves
		},
	}}
	trees := mqoTrees(29, 8)
	reqs := make([]core.PhysProps, len(trees))
	for i := range reqs {
		reqs[i] = toyColor(1 + i%2)
	}
	exhaustive := optimizeAlone(t, trees, reqs)
	want := make([]uint64, len(trees))
	filtered := false
	for i, tree := range trees {
		o := core.NewOptimizer(&toyModel{}, opts)
		p, err := o.Optimize(o.InsertQuery(tree), reqs[i])
		coretest.CheckMemo(t, o)
		if err != nil || p == nil {
			t.Fatalf("alone %d: plan=%v err=%v", i, p, err)
		}
		want[i] = costBits(p)
		filtered = filtered || want[i] != exhaustive[i]
	}
	if !filtered {
		t.Fatal("the filter changed no plan cost; the test checks nothing")
	}
	o := core.NewOptimizer(&toyModel{}, opts)
	roots := make([]core.GroupID, len(trees))
	for i, tree := range trees {
		roots[i] = o.InsertQuery(tree)
	}
	plans, err := o.OptimizeBatchCtx(context.Background(), roots, reqs)
	coretest.CheckMemo(t, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p == nil {
			t.Fatalf("root %d: no plan", i)
		}
		if got := costBits(p); got != want[i] {
			t.Errorf("root %d: cost bits %#x, want %#x", i, got, want[i])
		}
	}
}

// TestOptimizeBatchRejectsUnsupported: the strategies a single Optimize
// call dispatches to, and a batch driving FindBestPlan directly would
// skip, are rejected with an error and no plans.
func TestOptimizeBatchRejectsUnsupported(t *testing.T) {
	trees := mqoTrees(31, 3)
	for name, opts := range map[string]*core.Options{
		"glue":     {Search: core.SearchOptions{GlueMode: true}},
		"seed":     {Guidance: core.GuidanceOptions{SeedPlanner: core.SyntacticSeedPlanner()}},
		"mcts":     {Search: core.SearchOptions{Policy: core.PolicyMCTS}},
		"widening": {Search: core.SearchOptions{Policy: core.PolicyWidening}},
	} {
		o := core.NewOptimizer(&toyModel{}, opts)
		roots := make([]core.GroupID, len(trees))
		for i, tree := range trees {
			roots[i] = o.InsertQuery(tree)
		}
		plans, err := o.OptimizeBatchCtx(context.Background(), roots, nil)
		if err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if len(plans) != len(roots) {
			t.Errorf("%s: %d plans for %d roots", name, len(plans), len(roots))
		}
		for i, p := range plans {
			if p != nil {
				t.Errorf("%s root %d: rejected batch returned a plan", name, i)
			}
		}
	}
}
