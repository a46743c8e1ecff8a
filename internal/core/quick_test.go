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

// toyShape is a random binary tree over distinct leaves, generated for
// property-based tests.
type toyShape struct {
	tree   *core.ExprTree
	leaves int
}

// Generate implements quick.Generator: a random pair tree with 1-6
// leaves.
func (toyShape) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(6)
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	var build func(lo, hi int) *core.ExprTree
	build = func(lo, hi int) *core.ExprTree {
		if hi-lo == 1 {
			return leaf(names[lo])
		}
		cut := lo + 1 + r.Intn(hi-lo-1)
		return pair(build(lo, cut), build(cut, hi))
	}
	return reflect.ValueOf(toyShape{tree: build(0, n), leaves: n})
}

// toyOptimum is the closed-form optimum of the toy cost model: n scans
// at 1, n-1 plain pairs at 2; a required color adds min(paint=4,
// colored-pair extra=8) when a pair exists, else paint for a bare leaf.
func toyOptimum(leaves int, colored bool) toyCost {
	c := toyCost(leaves + 2*(leaves-1))
	if colored {
		c += 4
	}
	return c
}

// TestQuickOptimumMatchesClosedForm: for every random tree shape the
// engine finds the closed-form optimal cost, for both the vacuous and a
// colored requirement.
func TestQuickOptimumMatchesClosedForm(t *testing.T) {
	check := func(s toyShape) bool {
		opt := newToyOpt(nil)
		g := opt.InsertQuery(s.tree)
		plain, err := opt.Optimize(g, nil)
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
		if err != nil || plain == nil {
			return false
		}
		if plain.Cost.(toyCost) != toyOptimum(s.leaves, false) {
			t.Logf("plain cost %v, want %v (leaves=%d)", plain.Cost, toyOptimum(s.leaves, false), s.leaves)
			return false
		}
		colored, err := opt.Optimize(g, toyColor(2))
		coretest.CheckMemo(t, opt)
		if err != nil || colored == nil {
			return false
		}
		if colored.Cost.(toyCost) != toyOptimum(s.leaves, true) {
			t.Logf("colored cost %v, want %v (leaves=%d)", colored.Cost, toyOptimum(s.leaves, true), s.leaves)
			return false
		}
		return opt.Stats().ConsistencyViolations == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPruningAndMemoInvariant: every engine configuration finds the
// same optimal cost on random shapes.
func TestQuickPruningAndMemoInvariant(t *testing.T) {
	variants := []core.Options{
		{},
		{Search: core.SearchOptions{NoPruning: true}},
		{Search: core.SearchOptions{NoFailureMemo: true}},
		{Search: core.SearchOptions{NoPruning: true, NoFailureMemo: true}},
		{Guidance: core.GuidanceOptions{SeedPlanner: core.SyntacticSeedPlanner()}},
		{
			Search:   core.SearchOptions{NoFailureMemo: true},
			Guidance: core.GuidanceOptions{SeedPlanner: core.SyntacticSeedPlanner()},
		},
	}
	check := func(s toyShape) bool {
		want := toyOptimum(s.leaves, true)
		for _, v := range variants {
			v := v
			opt := core.NewOptimizer(&toyModel{}, &v)
			g := opt.InsertQuery(s.tree)
			plan, err := opt.Optimize(g, toyColor(1))
			coretest.CheckMemo(t, opt)
			if err != nil || plan == nil || plan.Cost.(toyCost) != want {
				t.Logf("options %+v: plan=%v err=%v want=%v", v, plan, err, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeliveredCoversRequired: every plan's delivered vector covers
// the requirement, and covering is reflexive on the delivered vector.
func TestQuickDeliveredCoversRequired(t *testing.T) {
	check := func(s toyShape, colorSeed uint8) bool {
		required := toyColor(int(colorSeed%4) + 1)
		opt := newToyOpt(nil)
		g := opt.InsertQuery(s.tree)
		plan, err := opt.Optimize(g, required)
		coretest.CheckMemo(t, opt)
		if err != nil || plan == nil {
			return false
		}
		return plan.Delivered.Covers(required) && plan.Delivered.Covers(plan.Delivered)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMemoDedup: inserting the same random tree twice never creates
// new expressions the second time and resolves to the same class.
func TestQuickMemoDedup(t *testing.T) {
	check := func(s toyShape) bool {
		opt := newToyOpt(nil)
		g1 := opt.InsertQuery(s.tree)
		before := opt.Memo().ExprCount()
		g2 := opt.InsertQuery(s.tree)
		return g1 == g2 && opt.Memo().ExprCount() == before
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeStability: exploring any random shape leaves the memo
// with consistent class resolution — every expression's class resolves
// to a live class containing it.
func TestQuickMergeStability(t *testing.T) {
	check := func(s toyShape) bool {
		opt := newToyOpt(nil)
		g := opt.InsertQuery(s.tree)
		if err := opt.ExploreCtx(context.Background(), g); err != nil {
			return false
		}
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
		memo := opt.Memo()
		ok := true
		memo.Groups(func(grp *core.Group) {
			for _, e := range grp.Exprs() {
				if memo.Group(e.Group()) != grp {
					ok = false
				}
				for _, in := range e.Inputs {
					if memo.Find(in) == 0 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMoveFilterNeverImproves: any random move subset (that keeps
// enforcers, so goals stay satisfiable) yields plans at best equal to
// exhaustive search — heuristics trade quality, never gain it.
func TestQuickMoveFilterNeverImproves(t *testing.T) {
	check := func(s toyShape, seed int64) bool {
		exhaustive := newToyOpt(nil)
		ge := exhaustive.InsertQuery(s.tree)
		pe, err := exhaustive.Optimize(ge, toyColor(1))
		coretest.CheckMemo(t, exhaustive)
		if err != nil || pe == nil {
			return false
		}

		rng := rand.New(rand.NewSource(seed))
		filtered := core.NewOptimizer(&toyModel{}, &core.Options{
			Search: core.SearchOptions{
				NoIncremental: true, // MoveFilter requires the full-recollection path
				MoveFilter: func(moves []core.Move) []core.Move {
					out := moves[:0]
					for _, m := range moves {
						if m.Kind == core.MoveEnforcer || rng.Intn(2) == 0 {
							out = append(out, m)
						}
					}
					return out
				},
			},
		})
		gf := filtered.InsertQuery(s.tree)
		pf, err := filtered.Optimize(gf, toyColor(1))
		coretest.CheckMemo(t, filtered)
		if err != nil {
			return false
		}
		// The filtered search may fail entirely; when it finds a plan
		// it must not beat the exhaustive optimum.
		return pf == nil || !toyCosts.Less(pf.Cost, pe.Cost)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
