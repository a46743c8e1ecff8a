package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// Unary operators of the deep-pattern model, beside the toy model's LEAF
// and PAIR.
const (
	kindX core.OpKind = 120 + iota
	kindY
	kindZ
	kindW
	kindQ
	kindV
	kindDone
)

type toyUnary struct {
	kind core.OpKind
	name string
}

func (u *toyUnary) Kind() core.OpKind             { return u.kind }
func (u *toyUnary) Arity() int                    { return 1 }
func (u *toyUnary) ArgsEqual(core.LogicalOp) bool { return true }
func (u *toyUnary) ArgsHash() uint64              { return uint64(u.kind) }
func (u *toyUnary) Name() string                  { return u.name }
func (u *toyUnary) String() string                { return u.name }

var (
	opX    = &toyUnary{kindX, "X"}
	opY    = &toyUnary{kindY, "Y"}
	opZ    = &toyUnary{kindZ, "Z"}
	opW    = &toyUnary{kindW, "W"}
	opQ    = &toyUnary{kindQ, "Q"}
	opV    = &toyUnary{kindV, "V"}
	opDone = &toyUnary{kindDone, "DONE"}
)

func unary(op *toyUnary, in *core.ExprTree) *core.ExprTree { return core.Node(op, in) }

// deepModel extends the toy model with unary operators and the rules
// Z(a) → W(a), W(a) → Q(a), X(W(a)) → DONE(a) and, three operators deep,
// X(Y(Z(a))) → DONE(a). Scans and pairs cost 1, every unary operator 100
// but DONE, which costs 1. PAIR's commutativity and rotation make
// exploration reach both of a pair's inputs.
type deepModel struct{ toyModel }

func (m *deepModel) Name() string { return "toy-deep" }

func (m *deepModel) TransformationRules() []*core.TransformRule {
	return append(m.toyModel.TransformationRules(),
		rewrite("z-to-w", core.P(kindZ, core.Leaf()), opW),
		rewrite("w-to-q", core.P(kindW, core.Leaf()), opQ),
		rewrite("xw-done", core.P(kindX, core.P(kindW, core.Leaf())), opDone),
		rewrite("xyz-done", core.P(kindX, core.P(kindY, core.P(kindZ, core.Leaf()))), opDone))
}

// rewrite is the rule pattern → op(a) over a chain of unary operators,
// where a is the class the chain's leaf binds.
func rewrite(name string, pattern *core.Pattern, op *toyUnary) *core.TransformRule {
	return &core.TransformRule{
		Name:    name,
		Pattern: pattern,
		Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			for b.Expr != nil {
				b = b.Children[0]
			}
			return ctx.Substitutes(ctx.Node(op, ctx.ClassRef(b.Group)))
		},
	}
}

func (m *deepModel) ImplementationRules() []*core.ImplRule {
	impl := func(name string, pattern *core.Pattern, inputs int, cost toyCost) *core.ImplRule {
		req := core.InputReq{Required: make([]core.PhysProps, inputs)}
		for i := range req.Required {
			req.Required[i] = toyColor(0)
		}
		return &core.ImplRule{
			Name:    name,
			Pattern: pattern,
			Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
				return []core.InputReq{req}, required.(toyColor) == 0
			},
			Cost: core.AlgCost(func(*core.RuleContext, *core.Binding, core.PhysProps, core.InputReq) toyCost { return cost }),
			Build: func(*core.RuleContext, *core.Binding, core.PhysProps, core.InputReq) core.PhysicalOp {
				return &toyPhys{name: name}
			},
		}
	}
	rules := []*core.ImplRule{
		impl("scan", core.P(kindLeaf), 0, 1),
		impl("pair", core.P(kindPair, core.Leaf(), core.Leaf()), 2, 1),
		impl("done", core.P(kindDone, core.Leaf()), 1, 1),
	}
	for _, op := range []*toyUnary{opX, opY, opZ, opW, opQ, opV} {
		rules = append(rules, impl(op.name, core.P(op.kind, core.Leaf()), 1, 100))
	}
	return rules
}

func (m *deepModel) Enforcers() []*core.Enforcer { return nil }

// TestDeepPatternSeesMergedGrandchild: X(Y(Z(a))) → DONE(a) must fire
// when Z reaches Y's input only through a merge that exploration finds
// after it has explored X's class. Exploring Z(L) derives W(L), which
// merges Z(L)'s class with W(L)'s — a grandchild of X. Both spellings of
// the query must then cost 104 (DONE over L, the pair, Z over L); with
// staleness propagated only to the merged class's direct consumers, the
// first spelling cost 403 (X, Y and W over L instead of DONE).
func TestDeepPatternSeesMergedGrandchild(t *testing.T) {
	xyw := func() *core.ExprTree { return unary(opX, unary(opY, unary(opW, leaf("L")))) }
	zl := func() *core.ExprTree { return unary(opZ, leaf("L")) }
	for _, q := range []*core.ExprTree{pair(xyw(), zl()), pair(zl(), xyw())} {
		opt := core.NewOptimizer(&deepModel{}, nil)
		plan, err := opt.Optimize(opt.InsertQuery(q), nil)
		if err != nil || plan == nil {
			t.Fatalf("optimize: plan=%v err=%v", plan, err)
		}
		if plan.Cost.(toyCost) != 104 {
			t.Errorf("plan costs %v, want 104:\n%s", plan.Cost, plan.Format())
		}
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
	}
}

// TestDeltaBindsMergedMember: X(W(a)) → DONE(a) must fire when W(L)
// joins the class under X through a merge after X has fired. Exploring
// W(L) derives Q(L), which merges W(L)'s class with Q(L)'s, the input of
// X. Every case costs 104 (DONE over L, the pair, W over L):
//   - Q(L)'s class is older and survives: W(L) lands beyond the
//     watermark X's first enumeration left, and the re-enumeration from
//     the watermark must bind it;
//   - W(L)'s class is older (inserted first): X's input merges away, and
//     X must enumerate the survivor whole, W(L) below the watermark
//     included;
//   - the pair's inputs commuted: the merge precedes X's first firing.
func TestDeltaBindsMergedMember(t *testing.T) {
	xq := func() *core.ExprTree { return unary(opX, unary(opQ, leaf("L"))) }
	wl := func() *core.ExprTree { return unary(opW, leaf("L")) }
	cases := []struct {
		name  string
		first *core.ExprTree // inserted before the query, when set
		query *core.ExprTree
	}{
		{"watermark", nil, pair(xq(), wl())},
		{"input-merged-away", wl(), pair(xq(), wl())},
		{"commuted", nil, pair(wl(), xq())},
	}
	for _, c := range cases {
		opt := core.NewOptimizer(&deepModel{}, nil)
		if c.first != nil {
			opt.InsertQuery(c.first)
		}
		plan, err := opt.Optimize(opt.InsertQuery(c.query), nil)
		if err != nil || plan == nil {
			t.Fatalf("%s: optimize: plan=%v err=%v", c.name, plan, err)
		}
		if plan.Cost.(toyCost) != 104 {
			t.Errorf("%s: plan costs %v, want 104:\n%s", c.name, plan.Cost, plan.Format())
		}
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
	}
}

// growModel is deepModel with two-level rules in place of the deep one:
// Z(a) → W(a), Y(Z(a)) → V(a) and X(V(a)) → DONE(a).
type growModel struct{ deepModel }

func (m *growModel) TransformationRules() []*core.TransformRule {
	return append(m.toyModel.TransformationRules(),
		rewrite("z-to-w", core.P(kindZ, core.Leaf()), opW),
		rewrite("yz-v", core.P(kindY, core.P(kindZ, core.Leaf())), opV),
		rewrite("xv-done", core.P(kindX, core.P(kindV, core.Leaf())), opDone))
}

// TestConsumerSeesDerivedMember: X(V(a)) → DONE(a) must fire when V(L)
// joins the class under X only after X has fired, derived there by
// Y(Z(a)) → V(a) once a merge (Z(L) → W(L)) has put Z(L) under Y. The
// class under X grows by a derivation, not by a merge, and its consumers
// must still see the new member: both spellings cost 104 (DONE over L,
// the pair, W over L), where re-opening only on merges left the first at
// 303 (X and V over L instead of DONE).
func TestConsumerSeesDerivedMember(t *testing.T) {
	xyw := func() *core.ExprTree { return unary(opX, unary(opY, unary(opW, leaf("L")))) }
	zl := func() *core.ExprTree { return unary(opZ, leaf("L")) }
	for _, q := range []*core.ExprTree{pair(xyw(), zl()), pair(zl(), xyw())} {
		opt := core.NewOptimizer(&growModel{}, nil)
		plan, err := opt.Optimize(opt.InsertQuery(q), nil)
		if err != nil || plan == nil {
			t.Fatalf("optimize: plan=%v err=%v", plan, err)
		}
		if plan.Cost.(toyCost) != 104 {
			t.Errorf("plan costs %v, want 104:\n%s", plan.Cost, plan.Format())
		}
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
	}
}

// TestExplorationFlagStaysWithItsClass: a class explored from inside the
// exploration of an older class, which it merges into, must clear its
// own under-exploration mark, not the older class's — which the outer
// exploration still holds.
func TestExplorationFlagStaysWithItsClass(t *testing.T) {
	opt := core.NewOptimizer(&deepModel{toyModel{withMarkRule: true}}, nil)
	memo := opt.Memo()
	a := opt.InsertQuery(leaf("a"))
	outer, _ := memo.Insert(opX, []core.GroupID{a}, core.InvalidGroup)
	inner, _ := memo.Insert(&toyMark{}, []core.GroupID{outer}, core.InvalidGroup)
	// outer ∋ X(inner): X(W(a)) → DONE(a) explores inner, where
	// MARK(outer) → outer merges inner into outer.
	memo.Insert(opX, []core.GroupID{inner}, outer)
	if err := opt.ExploreCtx(context.Background(), outer); err != nil {
		t.Fatal(err)
	}
	if memo.Find(inner) != memo.Find(outer) {
		t.Fatal("MARK(outer) did not merge into outer")
	}
	coretest.CheckMemo(t, opt)
	coretest.CheckFixpoint(t, opt)
}

// TestExplorationReachesFixpoint: after exploration of random pair
// shapes — with MARK nodes, whose elimination merges a class with its
// input, for merges during exploration — re-firing every rule derives
// nothing new.
func TestExplorationReachesFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	var build func(lo, hi int) *core.ExprTree
	build = func(lo, hi int) *core.ExprTree {
		var t *core.ExprTree
		if hi-lo == 1 {
			t = leaf(string(rune('a' + lo)))
		} else {
			cut := lo + 1 + rng.Intn(hi-lo-1)
			t = pair(build(lo, cut), build(cut, hi))
		}
		if rng.Intn(3) == 0 {
			t = core.Node(&toyMark{}, t)
		}
		return t
	}
	for n := 0; n < 60; n++ {
		opt := core.NewOptimizer(&toyModel{withMarkRule: true}, nil)
		leaves := 1 + rng.Intn(6)
		root := opt.InsertQuery(build(0, leaves))
		// A second query over the same leaves shares classes with the
		// first, so merges reach expressions explored earlier.
		other := opt.InsertQuery(build(0, leaves))
		if _, err := opt.Optimize(root, toyColor(1)); err != nil {
			t.Fatal(err)
		}
		if err := opt.ExploreCtx(context.Background(), other); err != nil {
			t.Fatal(err)
		}
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
	}
}

// TestFixpointCheckDetectsSkippedBinding: the oracle reports a memo in
// which a rule has a binding it never fired.
func TestFixpointCheckDetectsSkippedBinding(t *testing.T) {
	opt := newToyOpt(nil)
	memo := opt.Memo()
	root := opt.InsertQuery(leftDeepPair("a", "b", "c"))
	if err := opt.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	if err := memo.CheckFixpoint(); err != nil {
		t.Fatalf("explored memo fails the check: %v", err)
	}
	// A spelling inserted into the explored root class behind
	// exploration's back: commuting it derives an expression the memo
	// lacks.
	ab := memo.Find(memo.Group(root).Exprs()[0].Inputs[0])
	memo.Insert(&toyPair{}, []core.GroupID{opt.InsertQuery(leaf("d")), ab}, root)
	if err := memo.CheckFixpoint(); err == nil {
		t.Fatal("the check missed an unfired binding")
	}
}
