package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

func newToyOpt(opts *core.Options) *core.Optimizer {
	return core.NewOptimizer(&toyModel{}, opts)
}

func TestOptimizeSingleLeaf(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(leaf("a"))
	plan, err := opt.Optimize(g, nil)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Op.Name() != "toy-scan" {
		t.Fatalf("plan = %v, want toy-scan", plan)
	}
	if plan.Cost.(toyCost) != 1 {
		t.Fatalf("cost = %v, want 1", plan.Cost)
	}
}

func TestOptimizePairCost(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, nil)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	// plain-pair(2) + two scans(1+1) = 4.
	if plan.Cost.(toyCost) != 4 {
		t.Fatalf("cost = %v, want 4", plan.Cost)
	}
}

// TestColorEnforcerWins: with a color required, paint(plain-pair)=2+4=6
// beats colored-pair=10 (both over 2 scans).
func TestColorEnforcerWins(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, toyColor(3))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op.Name() != "paint" {
		t.Fatalf("root = %s, want paint\n%s", plan.Op.Name(), plan.Format())
	}
	if plan.Cost.(toyCost) != 8 {
		t.Fatalf("cost = %v, want 8 (paint 4 + pair 2 + scans 2)", plan.Cost)
	}
	if !plan.Delivered.Covers(toyColor(3)) {
		t.Fatalf("delivered %v does not cover required color", plan.Delivered)
	}
}

// TestExcludedVectorBlocksRedundantAlgorithm: the colored-pair algorithm
// must not appear as the input of the paint enforcer (it would deliver
// the very property being enforced).
func TestExcludedVectorBlocksRedundantAlgorithm(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	plan.Walk(func(p *core.Plan) {
		if p.Op.Name() == "paint" && len(p.Inputs) == 1 &&
			p.Inputs[0].Op.Name() == "colored-pair" {
			found = true
		}
	})
	if found {
		t.Fatalf("paint over colored-pair is redundant:\n%s", plan.Format())
	}
}

// TestExplorationClosure: commute and rotate generate every pair shape;
// for three leaves that is 3 classes of pairs with 2 commuted exprs over
// each of 3 leaf partitions plus the root's shapes.
func TestExplorationClosure(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(leftDeepPair("a", "b", "c"))
	if err := opt.ExploreCtx(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	memo := opt.Memo()
	root := memo.Group(g)
	if !root.Explored() {
		t.Fatal("root not marked explored")
	}
	// Root class: one PAIR per ordered 2-partition of {a,b,c} —
	// {ab|c, c|ab, bc|a, a|bc, ac|b, b|ac} — 6 distinct expressions
	// once duplicate classes have merged. (Duplicate expressions that
	// became identical through merges may linger; they are counted
	// once here.)
	distinct := map[[2]core.GroupID]bool{}
	for _, e := range root.Exprs() {
		distinct[[2]core.GroupID{memo.Find(e.Inputs[0]), memo.Find(e.Inputs[1])}] = true
	}
	if got := len(distinct); got != 6 {
		for _, e := range root.Exprs() {
			t.Logf("expr: %s", e)
		}
		t.Fatalf("distinct root exprs = %d, want 6", got)
	}
}

// TestDuplicateDerivationsMerge: building PAIR(a,b) and PAIR(b,a) as
// separate queries creates two classes; exploration of a tree containing
// both proves them equal and merges them.
func TestDuplicateDerivationsMerge(t *testing.T) {
	opt := newToyOpt(nil)
	g1 := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	g2 := opt.InsertQuery(pair(leaf("b"), leaf("a")))
	if g1 == g2 {
		t.Fatal("distinct shapes collapsed before any derivation")
	}
	if err := opt.ExploreCtx(context.Background(), g1); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	memo := opt.Memo()
	if memo.Find(g1) != memo.Find(g2) {
		t.Fatalf("classes %d and %d not merged after exploration", g1, g2)
	}
	if opt.Stats().Merges == 0 {
		t.Fatal("no merges recorded")
	}
}

// TestMarkElimination: the rule MARK(x) → x merges a class with its own
// input class; optimization must terminate and return the child's plan
// with no MARK operator.
func TestMarkElimination(t *testing.T) {
	opt := core.NewOptimizer(&toyModel{withMarkRule: true}, nil)
	g := opt.InsertQuery(core.Node(&toyMark{}, pair(leaf("a"), leaf("b"))))
	plan, err := opt.Optimize(g, nil)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	if plan.Cost.(toyCost) != 4 {
		t.Fatalf("cost = %v, want 4 (MARK eliminated)", plan.Cost)
	}
}

// TestWinnerAndFailureMemo: a second optimization of the same goal is
// answered from the winner table; an unreachable cost limit records a
// failure that answers an equal-or-tighter retry, while a higher limit
// re-optimizes.
func TestWinnerAndFailureMemo(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))

	if _, err := opt.Optimize(g, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	before := opt.Stats().WinnerHits
	if _, err := opt.Optimize(g, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if opt.Stats().WinnerHits <= before {
		t.Fatal("second optimization did not hit the winner table")
	}

	// A fresh optimizer with a hopeless limit for a new color goal.
	opt2 := newToyOpt(nil)
	g2 := opt2.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt2.OptimizeWithLimitCtx(context.Background(), g2, toyColor(2), toyCost(3))
	coretest.CheckMemo(t, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatalf("expected failure under limit 3, got plan %s", plan)
	}
	fBefore := opt2.Stats().FailureHits
	if plan, _ := opt2.OptimizeWithLimitCtx(context.Background(), g2, toyColor(2), toyCost(2)); plan != nil {
		t.Fatal("tighter retry should fail")
	}
	coretest.CheckMemo(t, opt2)
	if opt2.Stats().FailureHits <= fBefore {
		t.Fatal("tighter retry did not use the memoized failure")
	}
	plan, err = opt2.OptimizeWithLimitCtx(context.Background(), g2, toyColor(2), toyCost(100))
	coretest.CheckMemo(t, opt2)
	if err != nil || plan == nil {
		t.Fatalf("higher limit should succeed, got plan=%v err=%v", plan, err)
	}
	if plan.Cost.(toyCost) != 8 {
		t.Fatalf("cost = %v, want 8", plan.Cost)
	}
}

// TestExpressionBudget: exceeding MaxExprs surfaces ErrBudget.
func TestExpressionBudget(t *testing.T) {
	opt := newToyOpt(&core.Options{Budget: core.Budget{MaxExprs: 5}})
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d", "e"))
	_, err := opt.Optimize(g, nil)
	coretest.CheckMemo(t, opt)
	if err == nil {
		t.Fatal("expected budget error")
	}
}

// TestMoveFilterHeuristic: a filter that drops every enforcer move makes
// color goals unsatisfiable through paint; colored-pair remains.
func TestMoveFilterHeuristic(t *testing.T) {
	opts := &core.Options{Search: core.SearchOptions{
		NoIncremental: true, // MoveFilter requires the full-recollection path
		MoveFilter: func(moves []core.Move) []core.Move {
			var out []core.Move
			for _, m := range moves {
				if m.Kind != core.MoveEnforcer {
					out = append(out, m)
				}
			}
			return out
		},
	}}
	opt := newToyOpt(opts)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op.Name() != "colored-pair" {
		t.Fatalf("root = %s, want colored-pair when enforcers are filtered", plan.Op.Name())
	}
}

// TestNoPruningSameOptimum: disabling branch-and-bound must not change
// the plan cost.
func TestNoPruningSameOptimum(t *testing.T) {
	tree := leftDeepPair("a", "b", "c", "d")
	base := newToyOpt(nil)
	gb := base.InsertQuery(tree)
	pb, err := base.Optimize(gb, toyColor(1))
	coretest.CheckMemo(t, base)
	if err != nil {
		t.Fatal(err)
	}
	np := newToyOpt(&core.Options{Search: core.SearchOptions{NoPruning: true}})
	gn := np.InsertQuery(tree)
	pn, err := np.Optimize(gn, toyColor(1))
	coretest.CheckMemo(t, np)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Cost.(toyCost) != pn.Cost.(toyCost) {
		t.Fatalf("pruned %v != unpruned %v", pb.Cost, pn.Cost)
	}
}

// TestGlueModeNeverCheaper: the Starburst-style strategy cannot beat
// property-directed search.
func TestGlueModeNeverCheaper(t *testing.T) {
	tree := leftDeepPair("a", "b", "c")
	def := newToyOpt(nil)
	gd := def.InsertQuery(tree)
	pd, err := def.Optimize(gd, toyColor(1))
	coretest.CheckMemo(t, def)
	if err != nil {
		t.Fatal(err)
	}
	glue := newToyOpt(&core.Options{Search: core.SearchOptions{GlueMode: true}})
	gg := glue.InsertQuery(tree)
	pg, err := glue.Optimize(gg, toyColor(1))
	coretest.CheckMemo(t, glue)
	if err != nil {
		t.Fatal(err)
	}
	if pg == nil {
		t.Fatal("glue mode found no plan")
	}
	if pg.Cost.(toyCost) < pd.Cost.(toyCost) {
		t.Fatalf("glue %v beats directed %v", pg.Cost, pd.Cost)
	}
	if !pg.Delivered.Covers(toyColor(1)) {
		t.Fatal("glue plan does not satisfy the requirement")
	}
}

// TestTrace: tracing emits winner events in the classic text format.
func TestTrace(t *testing.T) {
	var sb strings.Builder
	opt := newToyOpt(&core.Options{Trace: core.TraceOptions{
		Tracer: core.ClassicTracer(func(line string) { sb.WriteString(line + "\n") }),
	}})
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	if _, err := opt.Optimize(g, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if !strings.Contains(sb.String(), "winner") {
		t.Fatal("no winner events traced")
	}
}

// TestPlanFormatting covers the display helpers.
func TestPlanFormatting(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Count(); got != 4 {
		t.Fatalf("plan nodes = %d, want 4", got)
	}
	if s := plan.String(); !strings.Contains(s, "paint(") {
		t.Fatalf("String() = %q", s)
	}
	if f := plan.Format(); !strings.Contains(f, "toy-scan") {
		t.Fatalf("Format() = %q", f)
	}
}

// brokenModel wraps the toy model with an algorithm whose Delivered lies
// about the produced properties; the engine's consistency check (the
// paper's own) must reject such plans and count the violation.
type brokenModel struct{ toyModel }

func (m *brokenModel) ImplementationRules() []*core.ImplRule {
	rules := m.toyModel.ImplementationRules()
	for _, r := range rules {
		if r.Name == "pair->colored" {
			r.Delivered = func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
				return toyColor(0) // lies: claims no color despite the requirement
			}
		}
	}
	return rules
}

func TestConsistencyCheckRejectsLyingAlgorithms(t *testing.T) {
	opt := core.NewOptimizer(&brokenModel{}, nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	// paint(plain-pair) remains valid; the lying colored-pair is
	// rejected and counted.
	if plan == nil || plan.Op.Name() != "paint" {
		t.Fatalf("plan = %v", plan)
	}
	if opt.Stats().ConsistencyViolations == 0 {
		t.Fatal("violation not counted")
	}
	if !plan.Delivered.Covers(toyColor(1)) {
		t.Fatal("surviving plan does not satisfy the requirement")
	}
}
