package core_test

import (
	"context"
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

// TestMergeRetiresDuplicateSpelling: a class holding PAIR[a b] and
// PAIR[a m] keeps one live spelling once MARK(b) proves m ≡ b, and
// exploring it fires exactly the rules that a class which never held the
// second spelling fires — none on the retired one.
func TestMergeRetiresDuplicateSpelling(t *testing.T) {
	explore := func(second bool) (live, fired int) {
		opt := core.NewOptimizer(&toyModel{withMarkRule: true}, nil)
		memo := opt.Memo()
		a := opt.InsertQuery(leaf("a"))
		b := opt.InsertQuery(leaf("b"))
		m := opt.InsertQuery(core.Node(&toyMark{}, leaf("b")))
		q := opt.InsertQuery(pair(leaf("a"), leaf("b")))
		if second {
			memo.Insert(&toyPair{}, []core.GroupID{a, m}, q)
		}
		if err := opt.ExploreCtx(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		if memo.Find(m) != memo.Find(b) {
			t.Fatal("MARK(b) not merged with b")
		}
		before := opt.Stats().RulesFired
		if err := opt.ExploreCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		coretest.CheckMemo(t, opt)
		return len(memo.Group(q).Exprs()), opt.Stats().RulesFired - before
	}
	wantLive, wantFired := explore(false)
	live, fired := explore(true)
	if live != wantLive || fired != wantFired {
		t.Errorf("with a retired spelling: %d live expressions, %d rules fired; without: %d, %d",
			live, fired, wantLive, wantFired)
	}
}

// TestCongruentConsumersMergeClasses: consumers in different classes
// that a merge of their inputs makes identical merge their classes, and
// the closure carries up to their own consumers.
func TestCongruentConsumersMergeClasses(t *testing.T) {
	opt := core.NewOptimizer(&toyModel{withMarkRule: true}, nil)
	memo := opt.Memo()
	ab := pair(leaf("a"), leaf("b"))
	amb := pair(leaf("a"), core.Node(&toyMark{}, leaf("b")))
	q1, q2 := opt.InsertQuery(ab), opt.InsertQuery(amb)
	r1, r2 := opt.InsertQuery(pair(ab, leaf("c"))), opt.InsertQuery(pair(amb, leaf("c")))
	if memo.Find(q1) == memo.Find(q2) {
		t.Fatal("PAIR[a b] and PAIR[a MARK(b)] share a class before any rule fired")
	}
	if err := opt.ExploreCtx(context.Background(), opt.InsertQuery(core.Node(&toyMark{}, leaf("b")))); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if memo.Find(q1) != memo.Find(q2) {
		t.Errorf("PAIR[a b] and PAIR[a MARK(b)] stay in classes %d and %d after MARK(b) ≡ b", memo.Find(q1), memo.Find(q2))
	}
	if memo.Find(r1) != memo.Find(r2) {
		t.Errorf("their consumers stay in classes %d and %d", memo.Find(r1), memo.Find(r2))
	}
	if n := len(memo.Group(q1).Exprs()); n != 1 {
		t.Errorf("merged class holds %d live spellings of PAIR[a b], want 1", n)
	}
}

func TestFindPathHalving(t *testing.T) {
	opt, memo := newMemo()
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	if err := opt.ExploreCtx(context.Background(), g); err != nil {
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
	if err := opt.ExploreCtx(context.Background(), g); err != nil {
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
	if err := opt.ExploreCtx(context.Background(), g); err != nil {
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
	err := opt.ExploreCtx(context.Background(), g)
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
