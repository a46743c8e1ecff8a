package core_test

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// TestQuickIncrementalMatchesFromScratch: on random shapes — with and
// without the class-merging mark rule, which stresses incremental
// collection's merge invalidation — the default incremental engine finds exactly the
// optimum of the from-scratch engine, for both vacuous and colored
// requirements, while attempting strictly fewer rule matches overall.
func TestQuickIncrementalMatchesFromScratch(t *testing.T) {
	for _, withMark := range []bool{false, true} {
		var incMatches, scrMatches int
		check := func(s toyShape) bool {
			tree := s.tree
			if withMark {
				tree = core.Node(&toyMark{}, tree)
			}
			for _, required := range []core.PhysProps{nil, toyColor(1)} {
				inc := core.NewOptimizer(&toyModel{withMarkRule: withMark}, nil)
				pi, err := inc.Optimize(inc.InsertQuery(tree), required)
				coretest.CheckMemo(t, inc)
				if err != nil || pi == nil {
					t.Logf("incremental: plan=%v err=%v", pi, err)
					return false
				}
				scr := core.NewOptimizer(&toyModel{withMarkRule: withMark},
					&core.Options{Search: core.SearchOptions{NoIncremental: true}})
				ps, err := scr.Optimize(scr.InsertQuery(tree), required)
				coretest.CheckMemo(t, scr)
				if err != nil || ps == nil {
					t.Logf("from-scratch: plan=%v err=%v", ps, err)
					return false
				}
				if pi.Cost.(toyCost) != ps.Cost.(toyCost) {
					t.Logf("incremental cost %v != from-scratch %v (mark=%v req=%v)",
						pi.Cost, ps.Cost, withMark, required)
					return false
				}
				if !pi.Delivered.Covers(ps.Delivered) || !ps.Delivered.Covers(pi.Delivered) {
					t.Logf("delivered differ: %v vs %v", pi.Delivered, ps.Delivered)
					return false
				}
				incMatches += inc.Stats().MatchCalls
				scrMatches += scr.Stats().MatchCalls
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("withMark=%v: %v", withMark, err)
		}
		if incMatches >= scrMatches {
			t.Fatalf("withMark=%v: incremental match calls %d not below from-scratch %d",
				withMark, incMatches, scrMatches)
		}
		t.Logf("withMark=%v: match calls incremental=%d from-scratch=%d",
			withMark, incMatches, scrMatches)
	}
}

// TestMovesReusedOnReactivation: a failed goal retried under a higher
// limit collects its moves again from the class matches its first
// activation made: it matches no implementation rule again, and every
// algorithm move it builds counts as reused.
func TestMovesReusedOnReactivation(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))

	// The optimum for a colored pair is 8 (scans 2 + pair 2 + paint 4);
	// a limit of 7.5 fails only after the whole space has been searched
	// and every sub-goal's class matches have been made.
	if plan, err := opt.OptimizeWithLimitCtx(context.Background(), g, toyColor(2), toyCost(7.5)); err != nil || plan != nil {
		t.Fatalf("hopeless limit: plan=%v err=%v", plan, err)
	}
	coretest.CheckMemo(t, opt)
	before := opt.Stats().MovesReused
	matchesBefore := opt.Stats().MatchCalls

	plan, err := opt.OptimizeWithLimitCtx(context.Background(), g, toyColor(2), toyCost(100))
	coretest.CheckMemo(t, opt)
	if err != nil || plan == nil {
		t.Fatalf("higher limit: plan=%v err=%v", plan, err)
	}
	if plan.Cost.(toyCost) != 8 {
		t.Fatalf("cost = %v, want 8", plan.Cost)
	}
	if opt.Stats().MatchCalls != matchesBefore {
		t.Fatalf("re-activation re-matched rules: %d match calls, had %d",
			opt.Stats().MatchCalls, matchesBefore)
	}
	if opt.Stats().MovesReused <= before {
		t.Fatalf("re-activation reused %d moves, want more than 0", opt.Stats().MovesReused-before)
	}
}

// TestWinnerTableSurvivesMerge: winner and failure entries recorded
// before a class unification remain answerable — through the hashed
// index of the surviving class — without re-optimization.
func TestWinnerTableSurvivesMerge(t *testing.T) {
	opt, memo := newMemo()
	// Leaf classes never merge through rules, so the winner entries
	// below demonstrably predate the forced unification.
	ga := opt.InsertQuery(leaf("a"))
	gb := opt.InsertQuery(leaf("b"))

	// Success for color 2 on a's class; failure for color 3 on b's.
	pa, err := opt.Optimize(ga, toyColor(2))
	coretest.CheckMemo(t, opt)
	if err != nil || pa == nil {
		t.Fatalf("optimize a: plan=%v err=%v", pa, err)
	}
	if plan, err := opt.OptimizeWithLimitCtx(context.Background(), gb, toyColor(3), toyCost(2)); err != nil || plan != nil {
		t.Fatalf("limit 2 should fail on b: plan=%v err=%v", plan, err)
	}
	coretest.CheckMemo(t, opt)

	// Force a merge by asserting LEAF(a) lives in b's class.
	memo.Insert(&toyLeaf{name: "a"}, nil, gb)
	if memo.Find(ga) != memo.Find(gb) {
		t.Fatal("classes not merged")
	}

	goals := opt.Stats().GoalsOptimized
	winHits := opt.Stats().WinnerHits
	failHits := opt.Stats().FailureHits

	// The winner answers through either pre-merge class reference.
	p2, err := opt.Optimize(gb, toyColor(2))
	coretest.CheckMemo(t, opt)
	if err != nil || p2 == nil || p2.Cost.(toyCost) != pa.Cost.(toyCost) {
		t.Fatalf("merged winner: plan=%v err=%v want cost %v", p2, err, pa.Cost)
	}
	if opt.Stats().WinnerHits <= winHits || opt.Stats().GoalsOptimized != goals {
		t.Fatal("winner not answered from the surviving table")
	}

	// The failure still short-circuits an equal-or-tighter retry.
	if plan, _ := opt.OptimizeWithLimitCtx(context.Background(), ga, toyColor(3), toyCost(1)); plan != nil {
		t.Fatalf("tighter retry found plan %v", plan)
	}
	coretest.CheckMemo(t, opt)
	if opt.Stats().FailureHits <= failHits || opt.Stats().GoalsOptimized != goals {
		t.Fatal("failure not answered from the surviving table")
	}

	// A higher limit re-optimizes and succeeds.
	p3, err := opt.OptimizeWithLimitCtx(context.Background(), ga, toyColor(3), toyCost(100))
	coretest.CheckMemo(t, opt)
	if err != nil || p3 == nil {
		t.Fatalf("higher limit: plan=%v err=%v", p3, err)
	}
	if opt.Stats().GoalsOptimized == goals {
		t.Fatal("higher limit should have re-searched")
	}
}
