package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

func newMemo() (*core.Optimizer, *core.Memo) {
	opt := newToyOpt(nil)
	return opt, opt.Memo()
}

func TestInsertDedupWithinGroup(t *testing.T) {
	opt, memo := newMemo()
	g := opt.InsertQuery(leaf("a"))
	before := memo.ExprCount()
	g2, created := memo.Insert(&toyLeaf{name: "a"}, nil, core.InvalidGroup)
	if created || g2 != g || memo.ExprCount() != before {
		t.Fatalf("duplicate insert created=%v group=%d exprs=%d", created, g2, memo.ExprCount())
	}
}

func TestInsertIntoTargetGroup(t *testing.T) {
	opt, memo := newMemo()
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	ga := opt.InsertQuery(leaf("a"))
	gb := opt.InsertQuery(leaf("b"))
	// Assert PAIR(b,a) equivalent to the root by inserting with target.
	g2, created := memo.Insert(&toyPair{}, []core.GroupID{gb, ga}, g)
	if !created || memo.Find(g2) != memo.Find(g) {
		t.Fatalf("targeted insert: created=%v group=%d", created, g2)
	}
	if got := len(memo.Group(g).Exprs()); got != 2 {
		t.Fatalf("group exprs = %d, want 2", got)
	}
}

func TestInsertArityMismatchPanics(t *testing.T) {
	_, memo := newMemo()
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	memo.Insert(&toyPair{}, nil, core.InvalidGroup)
}

func TestMergeUnifiesWinners(t *testing.T) {
	opt, memo := newMemo()
	g1 := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	g2 := opt.InsertQuery(pair(leaf("b"), leaf("a")))
	// Optimize both classes separately, then merge via a targeted
	// insert; the surviving class keeps the cheaper winner.
	if _, err := opt.Optimize(g1, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if _, err := opt.Optimize(g2, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	ga := opt.InsertQuery(leaf("a"))
	gb := opt.InsertQuery(leaf("b"))
	memo.Insert(&toyPair{}, []core.GroupID{gb, ga}, g1) // proves g1 ≡ g2
	if memo.Find(g1) != memo.Find(g2) {
		t.Fatal("classes not merged")
	}
	surv := memo.Group(g1)
	if plan := surv.BestPlan(toyColor(0)); plan == nil || plan.Cost.(toyCost) != 4 {
		t.Fatalf("merged winner = %v", plan)
	}
}

func TestFindPathHalving(t *testing.T) {
	opt, memo := newMemo()
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	if err := opt.Explore(g); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	// Every group id, live or merged, must resolve to a live class.
	for id := core.GroupID(1); int(id) <= memo.GroupCount(); id++ {
		rep := memo.Find(id)
		if memo.Find(rep) != rep {
			t.Fatalf("find(%d) = %d is not a representative", id, rep)
		}
		if memo.Group(id) == nil {
			t.Fatalf("group(%d) nil", id)
		}
	}
}

func TestMemoryBytesGrowsWithContent(t *testing.T) {
	opt, memo := newMemo()
	g := opt.InsertQuery(leftDeepPair("a", "b", "c"))
	small := memo.MemoryBytes()
	if err := opt.Explore(g); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if _, err := opt.Optimize(g, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if memo.MemoryBytes() <= small {
		t.Fatalf("memory estimate did not grow: %d <= %d", memo.MemoryBytes(), small)
	}
}

func TestStatsCounters(t *testing.T) {
	opt, _ := newMemo()
	g := opt.InsertQuery(leftDeepPair("a", "b", "c"))
	if _, err := opt.Optimize(g, toyColor(1)); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	st := opt.Stats()
	if st.Groups == 0 || st.Exprs == 0 || st.RulesFired == 0 ||
		st.AlgorithmMoves == 0 || st.EnforcerMoves == 0 || st.GoalsOptimized == 0 {
		t.Fatalf("stats have zero counters: %+v", *st)
	}
	if st.ConsistencyViolations != 0 {
		t.Fatalf("consistency violations: %d", st.ConsistencyViolations)
	}
}

func TestGroupAccessors(t *testing.T) {
	opt, memo := newMemo()
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	grp := memo.Group(g)
	if grp.ID() != memo.Find(g) {
		t.Fatal("ID mismatch")
	}
	if grp.Explored() {
		t.Fatal("unexplored group claims explored")
	}
	if err := opt.Explore(g); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if !memo.Group(g).Explored() {
		t.Fatal("explored group claims unexplored")
	}
	if lp := grp.LogicalProps().(*toyProps); lp.weight != 3 {
		t.Fatalf("logical props = %+v", lp)
	}
}

func TestBudgetErrorSurfacesFromMemo(t *testing.T) {
	opt := newToyOpt(&core.Options{Budget: core.Budget{MaxExprs: 3}})
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	err := opt.Explore(g)
	coretest.CheckMemo(t, opt)
	if err == nil {
		t.Fatal("expected budget error from exploration")
	}
	if opt.Memo().Err() == nil {
		t.Fatal("memo does not expose the error")
	}
}

// TestPreoptimizedSubplansReused exercises the future-work direction
// the paper sketches ("longer-lived partial results", "preoptimized
// subplans"): within one optimizer session, a later query that shares
// subexpressions with an earlier one answers the shared goals straight
// from the winner table.
func TestPreoptimizedSubplansReused(t *testing.T) {
	opt, _ := newMemo()

	// Preoptimize a subexpression on its own.
	sub := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	if _, err := opt.Optimize(sub, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	goalsAfterSub := opt.Stats().GoalsOptimized
	hitsBefore := opt.Stats().WinnerHits

	// A larger query containing the same subexpression: the memo
	// collapses the shared subtree onto the preoptimized class.
	full := opt.InsertQuery(pair(pair(leaf("a"), leaf("b")), leaf("c")))
	plan, err := opt.Optimize(full, nil)
	coretest.CheckMemo(t, opt)
	if err != nil || plan == nil {
		t.Fatal(err)
	}
	if plan.Cost.(toyCost) != 7 {
		t.Fatalf("cost = %v, want 7", plan.Cost)
	}
	if opt.Stats().WinnerHits <= hitsBefore {
		t.Fatal("preoptimized subplan not reused from the winner table")
	}
	// The shared goal must not have been re-searched.
	reSearched := opt.Stats().GoalsOptimized - goalsAfterSub
	if reSearched <= 0 {
		t.Fatal("nothing optimized for the larger query?")
	}
	subGroup := opt.Memo().Find(sub)
	fullGroup := opt.Memo().Find(full)
	if subGroup == fullGroup {
		t.Fatal("sub and full queries should be different classes")
	}
	if opt.Memo().Group(sub).BestPlan(toyColor(0)) == nil {
		t.Fatal("preoptimized winner lost")
	}
}
