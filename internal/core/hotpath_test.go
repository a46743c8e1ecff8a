package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The hot-path benchmarks live inside the package so they can target the
// internal move-collection and winner-table machinery directly. They use
// a minimal model — leaf and binary-node operators, one "tint" physical
// property, an enforcer — defined here rather than sharing the external
// test suite's toy model, which package core cannot import.

const (
	hpKindLeaf OpKind = 200 + iota
	hpKindNode
)

type hpLeaf struct{ id int }

func (l *hpLeaf) Kind() OpKind               { return hpKindLeaf }
func (l *hpLeaf) Arity() int                 { return 0 }
func (l *hpLeaf) ArgsEqual(o LogicalOp) bool { return l.id == o.(*hpLeaf).id }
func (l *hpLeaf) ArgsHash() uint64           { return uint64(l.id)*2654435761 + 17 }
func (l *hpLeaf) Name() string               { return "HPLEAF" }
func (l *hpLeaf) String() string             { return fmt.Sprintf("HPLEAF(%d)", l.id) }

type hpNode struct{}

func (*hpNode) Kind() OpKind             { return hpKindNode }
func (*hpNode) Arity() int               { return 2 }
func (*hpNode) ArgsEqual(LogicalOp) bool { return true }
func (*hpNode) ArgsHash() uint64         { return 23 }
func (*hpNode) Name() string             { return "HPNODE" }
func (*hpNode) String() string           { return "HPNODE" }

type hpProps struct{ n int }

func (p *hpProps) String() string { return fmt.Sprintf("n=%d", p.n) }

// hpTint is the physical property: 0 = none required.
type hpTint int

func (t hpTint) Equal(o PhysProps) bool  { return t == o.(hpTint) }
func (t hpTint) Covers(o PhysProps) bool { return o.(hpTint) == 0 || t == o.(hpTint) }
func (t hpTint) Hash() uint64            { return uint64(t) }
func (t hpTint) String() string          { return fmt.Sprintf("tint%d", int(t)) }

// hpCost is a small saturating integer: every value boxes into an
// interface without allocating, so the allocation counts below are the
// engine's own. hpInfinite is the infinite cost.
type hpCost uint8

const hpInfinite hpCost = 255

func (c hpCost) Add(o hpCost) hpCost {
	if s := int(c) + int(o); s < int(hpInfinite) {
		return hpCost(s)
	}
	return hpInfinite
}

func (c hpCost) Sub(o hpCost) hpCost {
	if c == hpInfinite {
		return c
	}
	return c - o
}

func (c hpCost) Less(o hpCost) bool { return c < o }
func (c hpCost) String() string     { return fmt.Sprintf("%d", int(c)) }

var hpCosts = CostsOf(hpCost(0), hpInfinite)

type hpPhys struct{ name string }

func (p *hpPhys) Name() string   { return p.name }
func (p *hpPhys) String() string { return p.name }

type hpModel struct{}

func (*hpModel) Name() string { return "hotpath" }

func (*hpModel) DeriveLogicalProps(op LogicalOp, inputs []LogicalProps) LogicalProps {
	n := 1
	for _, in := range inputs {
		n += in.(*hpProps).n
	}
	return &hpProps{n: n}
}

func (*hpModel) TransformationRules() []*TransformRule { return hpTransformRules }

// Built once: exploreGroup asks the model for its rules on every call,
// and the allocation tests below count what exploration itself allocates.
var hpTransformRules = []*TransformRule{
	{
		Name:    "hp-commute",
		Pattern: P(hpKindNode, Leaf(), Leaf()),
		Apply: func(ctx *RuleContext, b *Binding) []*ExprTree {
			return ctx.Substitutes(ctx.Node(&hpNode{},
				ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
		},
	},
	{
		Name:    "hp-rotate",
		Pattern: P(hpKindNode, P(hpKindNode, Leaf(), Leaf()), Leaf()),
		Apply: func(ctx *RuleContext, b *Binding) []*ExprTree {
			a := b.Children[0].Children[0].Group
			bb := b.Children[0].Children[1].Group
			c := b.Children[1].Group
			return ctx.Substitutes(ctx.Node(&hpNode{},
				ctx.ClassRef(a), ctx.Node(&hpNode{}, ctx.ClassRef(bb), ctx.ClassRef(c))))
		},
	},
}

func (*hpModel) ImplementationRules() []*ImplRule { return hpImplRules }

// hpAnyIn is hpnode->join's input requirement, shared by every binding.
var hpAnyIn = []InputReq{{Required: []PhysProps{hpTint(0), hpTint(0)}}}

// Built once, as the transformation rules are: every move collection
// asks the model for its implementation rules and enforcers.
var hpImplRules = []*ImplRule{
	{
		Name:    "hpleaf->scan",
		Pattern: P(hpKindLeaf),
		Applicability: func(ctx *RuleContext, b *Binding, required PhysProps) ([]InputReq, bool) {
			return []InputReq{{}}, required.(hpTint) == 0
		},
		Cost: AlgCost(func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) hpCost {
			return 1
		}),
		Build: func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) PhysicalOp {
			return &hpPhys{name: "hp-scan"}
		},
		Promise: 2,
	},
	{
		Name:    "hpnode->join",
		Pattern: P(hpKindNode, Leaf(), Leaf()),
		Applicability: func(ctx *RuleContext, b *Binding, required PhysProps) ([]InputReq, bool) {
			if required.(hpTint) != 0 {
				return nil, false
			}
			return hpAnyIn, true
		},
		Cost: AlgCost(func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) hpCost {
			return 2
		}),
		Build: func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) PhysicalOp {
			return &hpPhys{name: "hp-join"}
		},
		Promise: 2,
	},
}

func (*hpModel) Enforcers() []*Enforcer { return hpEnforcers }

var hpEnforcers = []*Enforcer{{
	Name: "hp-tinter",
	Relax: func(ctx *RuleContext, lp LogicalProps, required PhysProps) (PhysProps, PhysProps, bool) {
		if required.(hpTint) == 0 {
			return nil, nil, false
		}
		return hpTint(0), required, true
	},
	Cost: EnfCost(func(ctx *RuleContext, lp LogicalProps, required PhysProps) hpCost {
		return 4
	}),
	Build: func(ctx *RuleContext, lp LogicalProps, required PhysProps) PhysicalOp {
		return &hpPhys{name: "hp-tinter"}
	},
}}

func (*hpModel) AnyProps() PhysProps { return hpTint(0) }
func (*hpModel) Costs() CostSpace    { return hpCosts }

// hpFloorModel is hpModel with an admissible cost floor: a class of n
// operators costs at least n.
type hpFloorModel struct{ hpModel }

func (*hpFloorModel) LowerBound(lp LogicalProps) (hpCost, bool) { return hpCost(lp.(*hpProps).n), true }

// hpChain builds HPNODE(...HPNODE(HPNODE(l0,l1),l2)...,ln).
func hpChain(n int) *ExprTree {
	t := Node(&hpLeaf{id: 0})
	for i := 1; i < n; i++ {
		t = Node(&hpNode{}, t, Node(&hpLeaf{id: i}))
	}
	return t
}

// hpExplored returns an optimizer with an n-leaf chain inserted and its
// root class explored to transformation fixpoint.
func hpExplored(tb testing.TB, n int) (*Optimizer, *Group) {
	tb.Helper()
	o := NewOptimizer(&hpModel{}, nil)
	root := o.InsertQuery(hpChain(n))
	if err := o.ExploreCtx(context.Background(), root); err != nil {
		tb.Fatal(err)
	}
	checkMemo(tb, o)
	return o, o.memo.Group(root)
}

// BenchmarkCollectMoves compares a goal's move collection from scratch —
// the class's implementation rules matched again, what every fixpoint
// iteration pays under NoIncremental — against a collection from the
// class's existing matches onto a warm move stack, what a goal
// re-activation or a second requirement on the class pays.
func BenchmarkCollectMoves(b *testing.B) {
	b.Run("scratch", func(b *testing.B) {
		o, g := hpExplored(b, 6)
		required := o.model.AnyProps()
		var stack []Move
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.resetMatches(o.memo.mergeEpoch)
			if stack = o.collectMoves(stack[:0], g, required, 0, true); len(stack) == 0 {
				b.Fatal("no moves")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		o, g := hpExplored(b, 6)
		required := o.model.AnyProps()
		stack := o.collectMoves(nil, g, required, 0, true)
		if len(stack) == 0 {
			b.Fatal("no moves")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stack = o.collectMoves(stack[:0], g, required, 0, true)
		}
	})
}

// BenchmarkWinnerLookup measures answering a goal from the winner table
// — the engine's most frequent operation once the memo is warm.
func BenchmarkWinnerLookup(b *testing.B) {
	o, g := hpExplored(b, 6)
	required := PhysProps(hpTint(1))
	if p, err := o.Optimize(g.ID(), required); err != nil || p == nil {
		b.Fatalf("optimize: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := o.Optimize(g.ID(), required)
		if err != nil || p == nil {
			b.Fatalf("optimize: %v", err)
		}
	}
}

// TestMergeCarriesWinnerState verifies at the struct level that every
// piece of winner-table state — plans, failure limits, and the
// in-progress flag guarding cyclic derivations — survives a class
// unification into the surviving class's hashed index, and that the
// merge bumps the epoch that voids every class's matches.
func TestMergeCarriesWinnerState(t *testing.T) {
	o := NewOptimizer(&hpModel{}, nil)
	m := o.memo
	ga := m.InsertTree(Node(&hpLeaf{id: 1}), InvalidGroup)
	gb := m.InsertTree(Node(&hpLeaf{id: 2}), InvalidGroup)

	// All state goes on the class that will merge away (gb: higher id).
	loser := m.Group(gb)
	wProg := loser.ensureWinnerKeyed(winnerKey(hpTint(1), nil), hpTint(1), nil)
	wProg.inProgress = true
	wFail := loser.ensureWinnerKeyed(winnerKey(hpTint(2), nil), hpTint(2), nil)
	wFail.failedLimit = hpCost(3)
	wPlan := loser.ensureWinnerKeyed(winnerKey(hpTint(3), hpTint(1)), hpTint(3), hpTint(1))
	wPlan.plan = &Plan{Cost: hpCost(5)}
	epochBefore := m.mergeEpoch

	if got := m.merge(ga, gb); got != m.Find(ga) {
		t.Fatalf("merge representative = %d", got)
	}
	surv := m.Group(ga)
	if surv == loser {
		t.Fatal("expected ga's class to survive")
	}
	if w := surv.lookupWinner(hpTint(1), nil); w == nil || !w.inProgress {
		t.Fatalf("in-progress flag lost: %+v", w)
	}
	if w := surv.lookupWinner(hpTint(2), nil); w == nil || w.failedLimit == nil ||
		w.failedLimit.(hpCost) != 3 {
		t.Fatalf("failure entry lost: %+v", w)
	}
	if w := surv.lookupWinner(hpTint(3), hpTint(1)); w == nil || w.plan == nil ||
		w.plan.Cost.(hpCost) != 5 {
		t.Fatalf("winner plan lost: %+v", w)
	}
	if m.mergeEpoch != epochBefore+1 {
		t.Fatalf("merge epoch %d, want %d", m.mergeEpoch, epochBefore+1)
	}
}

// TestHotPathAllocs pins allocation counts on the move-collection hot
// path so micro-optimizations do not silently regress.
func TestHotPathAllocs(t *testing.T) {
	o, g := hpExplored(t, 6)
	required := o.model.AnyProps()
	stack := o.collectMoves(nil, g, required, 0, true)
	if len(stack) == 0 {
		t.Fatal("no moves collected")
	}

	// A goal's full collection onto a warm stack — every class match
	// turned into a move, the enforcers added — matches no rule again and
	// allocates nothing.
	calls, matches := o.stats.MatchCalls, len(g.matches)
	if n := testing.AllocsPerRun(100, func() {
		stack = o.collectMoves(stack[:0], g, required, 0, true)
	}); n != 0 {
		t.Errorf("a full collection onto a warm stack allocates %.1f times per run, want 0", n)
	}
	if o.stats.MatchCalls != calls || len(g.matches) != matches {
		t.Errorf("a collection from the class's matches made %d match calls and %d matches, want none",
			o.stats.MatchCalls-calls, len(g.matches)-matches)
	}

	// A second requirement on a class whose matches are collected runs
	// Applicability over them and matches no implementation rule again.
	tinted := PhysProps(hpTint(1))
	tmoves := o.collectMoves(nil, g, tinted, 0, true)
	if o.stats.MatchCalls != calls || len(g.matches) != matches {
		t.Errorf("a second requirement made %d match calls and %d matches, want none",
			o.stats.MatchCalls-calls, len(g.matches)-matches)
	}
	if len(tmoves) != 1 || tmoves[0].Kind != MoveEnforcer {
		t.Errorf("tinted moves %+v, want the tinter alone", tmoves)
	}

	// A warm winner-table hit may box at most a couple of interface
	// values on its way out; anything more means the lookup path has
	// grown an allocation.
	if p, err := o.Optimize(g.ID(), required); err != nil || p == nil {
		t.Fatalf("optimize: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if p, err := o.Optimize(g.ID(), required); err != nil || p == nil {
			t.Fatalf("optimize: %v", err)
		}
	}); n > 2 {
		t.Errorf("warm winner-hit Optimize allocates %.1f times per run, want <= 2", n)
	}
	checkMemo(t, o)

	// Repeated memo insertion of an already-stored expression must not
	// allocate: the canonical-input lookup runs over the scratch buffer.
	e := g.Exprs()[0]
	if len(e.Inputs) == 0 {
		t.Fatal("expected a non-leaf expression first in the root class")
	}
	op, inputs := e.Op, e.Inputs
	if n := testing.AllocsPerRun(100, func() {
		o.memo.Insert(op, inputs, InvalidGroup)
	}); n != 0 {
		t.Errorf("duplicate Insert allocates %.1f times per run, want 0", n)
	}

	// The same holds on the path rules actually take. Re-firing every
	// rule over every binding on an expression of a class already at
	// fixpoint — its fired-rule mask and its rotation's watermark cleared
	// — derives only duplicates: the bindings come from recycled frames,
	// the substitutes from the memo's scratch, and the lookups that
	// discard them run over the inputs stack.
	m := o.memo
	rotate := m.model.TransformationRules()[1].Pattern
	if m.deltaPos[1] != 0 || e.marks == 0 {
		t.Fatalf("the rotation is not a delta rule with a watermark at %s", e)
	}
	exprs, fired := m.stats.Exprs, m.stats.RulesFired
	if n := testing.AllocsPerRun(100, func() {
		e.appliedRules = 0
		m.marks[e.marks-1] = ruleMark{}
		g.explored = false
		m.exploreGroup(g)
	}); n != 0 {
		t.Errorf("re-firing every binding at fixpoint allocates %.1f times per run, want 0", n)
	}
	if m.stats.RulesFired == fired || m.stats.Exprs != exprs {
		t.Fatalf("re-exploration fired %d rules and stored %d expressions, want some and none",
			m.stats.RulesFired-fired, m.stats.Exprs-exprs)
	}

	// A stale pair whose input class has not grown since its watermark —
	// what a merge leaves at a consumer bound through the other input —
	// binds nothing, allocating nothing.
	fired, bindings := m.stats.RulesFired, m.stats.Bindings
	if n := testing.AllocsPerRun(100, func() {
		e.stale = m.staleAt[0]
		g.explored = false
		m.exploreGroup(g)
	}); n != 0 {
		t.Errorf("a stale re-attempt at fixpoint allocates %.1f times per run, want 0", n)
	}
	if m.stats.RulesFired != fired || m.stats.Bindings != bindings {
		t.Fatalf("a stale re-attempt at fixpoint fired %d rules over %d bindings, want none",
			m.stats.RulesFired-fired, m.stats.Bindings-bindings)
	}

	// A warm enumeration of a two-level pattern allocates nothing: the
	// nested level's continuation is a record on the Go stack. From a
	// watermark at the end of the input class, it binds nothing.
	bound := 0
	count := func(b *Binding) bool {
		if b.Children[0].Expr == nil || len(b.Children[0].Children) != 2 {
			t.Fatalf("binding does not mirror the pattern: %+v", b)
		}
		bound++
		return true
	}
	if n := testing.AllocsPerRun(100, func() { m.matchBindings(e, rotate, count) }); n != 0 {
		t.Errorf("warm two-level matchBindings allocates %.1f times per run, want 0", n)
	}
	if bound == 0 {
		t.Fatal("the two-level pattern bound nothing")
	}
	bound = 0
	if n := testing.AllocsPerRun(100, func() { m.matchDelta(e, 0, 0, rotate, count) }); n != 0 {
		t.Errorf("warm two-level matchDelta allocates %.1f times per run, want 0", n)
	}
	if bound != 0 {
		t.Fatalf("matchDelta from an up-to-date watermark bound %d times", bound)
	}

	// An algorithm pursuit that its floor check refutes before optimizing
	// any input allocates nothing: the rule's cost and the input floors
	// come back and are summed as values, and the input plan vector is
	// made only for a plan that is offered. That holds also for a cost
	// type of 16 bytes, which boxing would put on the heap.
	refutedPursuitAllocs(t, &hpFloorModel{}, hpCost(8))
	refutedPursuitAllocs(t, &hpRecModel{}, hpRec{io: 8})
}

// refutedPursuitAllocs checks that pursuing the join move of a 4-leaf
// chain's root under limit, which the join's cost of 2 and its inputs'
// floors of 6 exceed, is refuted at the floor check without allocating.
func refutedPursuitAllocs[C CostADT[C]](t *testing.T, model Model, limit C) {
	t.Helper()
	required := model.AnyProps()
	fo := NewOptimizer(model, nil)
	root := fo.InsertQuery(hpChain(4))
	if err := fo.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	fg := fo.memo.Group(root)
	moves := fo.collectMoves(nil, fg, required, 0, true)
	var mv *Move
	for i := range moves {
		if moves[i].Kind == MoveAlgorithm {
			mv = &moves[i]
			break
		}
	}
	if mv == nil {
		t.Fatal("no algorithm move collected")
	}
	s := &goal[C]{required: required, limit: limit}
	skipped := fo.stats.MovesSkipped
	eng := fo.eng.(*search[C])
	if n := testing.AllocsPerRun(100, func() { eng.pursueAlgorithm(s, fg, mv) }); n != 0 {
		t.Errorf("%s: a refuted pursuit allocates %.1f times per run, want 0", model.Name(), n)
	}
	if fo.stats.MovesSkipped == skipped || s.best != nil || fo.stats.GoalsOptimized != 0 {
		t.Fatalf("%s: the pursuit was not refuted at its floor check: %+v", model.Name(), fo.stats)
	}
}

// hpRec is hpCost widened to a 16-byte record of two components.
type hpRec struct{ io, cpu int64 }

var hpRecInfinite = hpRec{io: 1 << 40}

func (c hpRec) Add(o hpRec) hpRec { return hpRec{c.io + o.io, c.cpu + o.cpu} }

func (c hpRec) Sub(o hpRec) hpRec {
	if c == hpRecInfinite {
		return c
	}
	return hpRec{c.io - o.io, c.cpu - o.cpu}
}

func (c hpRec) Less(o hpRec) bool { return c.io+c.cpu < o.io+o.cpu }
func (c hpRec) String() string    { return fmt.Sprintf("%d", c.io+c.cpu) }

var hpRecCosts = CostsOf(hpRec{}, hpRecInfinite)

// hpRecModel is hpFloorModel with every cost and floor an hpRec.
type hpRecModel struct{ hpFloorModel }

func (*hpRecModel) Name() string     { return "hotpath-rec" }
func (*hpRecModel) Costs() CostSpace { return hpRecCosts }

func (*hpRecModel) LowerBound(lp LogicalProps) (hpRec, bool) {
	return hpRec{io: int64(lp.(*hpProps).n)}, true
}

func (m *hpRecModel) ImplementationRules() []*ImplRule {
	var out []*ImplRule
	for _, r := range m.hpFloorModel.ImplementationRules() {
		rr, f := *r, r.Cost.(AlgCostFunc[hpCost])
		rr.Cost = AlgCost(func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) hpRec {
			return hpRec{io: int64(f(ctx, b, required, alt))}
		})
		out = append(out, &rr)
	}
	return out
}

func (m *hpRecModel) Enforcers() []*Enforcer {
	var out []*Enforcer
	for _, e := range m.hpFloorModel.Enforcers() {
		ee, f := *e, e.Cost.(EnfCostFunc[hpCost])
		ee.Cost = EnfCost(func(ctx *RuleContext, lp LogicalProps, required PhysProps) hpRec {
			return hpRec{io: int64(f(ctx, lp, required))}
		})
		out = append(out, &ee)
	}
	return out
}

// hpRecRules declares hpCost, but its rules' cost functions return hpRec.
type hpRecRules struct{ hpRecModel }

func (*hpRecRules) Costs() CostSpace { return hpCosts }

// hpRecEnforcer declares hpCost, but its enforcer's cost function
// returns hpRec.
type hpRecEnforcer struct{ hpModel }

func (*hpRecEnforcer) Enforcers() []*Enforcer { return (&hpRecModel{}).Enforcers() }

// TestCostTypeMismatchPanics: a cost function registered for another
// cost type than the model declares is rejected when the optimizer is
// built or rebound, naming the rule, not in the middle of a search.
func TestCostTypeMismatchPanics(t *testing.T) {
	panicsWith := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) || !strings.Contains(msg, "hpRec") {
				t.Errorf("%s: panic %q, want one naming %q and its cost type", name, msg, want)
			}
		}()
		f()
	}
	panicsWith("NewOptimizer", "implementation rule hpleaf->scan", func() { NewOptimizer(&hpRecRules{}, nil) })
	panicsWith("NewOptimizer", "enforcer hp-tinter", func() { NewOptimizer(&hpRecEnforcer{}, nil) })
	panicsWith("Rederive", "enforcer hp-tinter", func() {
		o := NewOptimizer(&hpModel{}, nil)
		o.InsertQuery(hpChain(3))
		o.Rederive(&hpRecEnforcer{})
	})
}

// TestSubstituteScratchOverrun: a firing that builds more nodes than the
// memo's scratch holds gets heap memory for the excess, and the
// substitute is inserted whole.
func TestSubstituteScratchOverrun(t *testing.T) {
	const leaves = substNodes // 2*leaves-1 operator nodes in all
	model := &hpWideModel{leaves: leaves}
	o := NewOptimizer(model, nil)
	root := o.InsertQuery(Node(&hpNode{}, Node(&hpLeaf{id: -1}), Node(&hpLeaf{id: -2})))
	if err := o.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	checkMemo(t, o)
	// The wide substitute is a left-deep chain over `leaves` new leaves:
	// leaves-1 HPNODE expressions, the topmost in the root class.
	if got, want := o.Stats().Exprs, 3+leaves+leaves-1; got != want {
		t.Fatalf("memo stores %d expressions, want %d", got, want)
	}
	if n := len(o.memo.Group(root).Exprs()); n != 2 {
		t.Fatalf("root class holds %d expressions, want the query and the wide substitute", n)
	}
	if mk := o.memo.subst.mark(); mk != (substMark{}) {
		t.Fatalf("scratch not rewound after the firing: %+v", mk)
	}
}

// hpWideModel is hpModel with a single transformation rule whose
// substitute outgrows the substitute scratch.
type hpWideModel struct {
	hpModel
	leaves int
}

func (m *hpWideModel) TransformationRules() []*TransformRule {
	return []*TransformRule{{
		Name:    "hp-widen",
		Pattern: P(hpKindNode, Leaf(), Leaf()),
		Condition: func(ctx *RuleContext, b *Binding) bool {
			// Fire on the query only, not on the chain it produces.
			return ctx.Memo.ExprCount() == 3
		},
		Apply: func(ctx *RuleContext, b *Binding) []*ExprTree {
			t := ctx.Node(&hpLeaf{id: 0})
			for i := 1; i < m.leaves; i++ {
				t = ctx.Node(&hpNode{}, t, ctx.Node(&hpLeaf{id: i}))
			}
			return ctx.Substitutes(t)
		},
	}}
}

// TestMoveStackBalanced: every entry point leaves the move stack empty —
// each FindBestPlan activation pops the moves it pushed, also when a
// budget stop or a cancellation unwinds it — and the exhaustive engine
// does collect onto it. Memo.Check, which every search test runs through
// checkMemo or coretest.CheckMemo, asserts the same.
func TestMoveStackBalanced(t *testing.T) {
	required := PhysProps(hpTint(1))
	guided := func(o *Options) { o.Guidance.SeedPlanner = SyntacticSeedPlanner() }
	optimize := func(o *Optimizer, root GroupID) error {
		_, err := o.OptimizeCtx(context.Background(), root, required)
		return err
	}
	withLimit := func(o *Optimizer, root GroupID) error {
		_, err := o.OptimizeWithLimitCtx(context.Background(), root, required, hpCost(9))
		return err
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := func(ctx context.Context) func(o *Optimizer, root GroupID) error {
		return func(o *Optimizer, root GroupID) error {
			if _, err := o.OptimizeCtx(ctx, root, required); !errors.Is(err, ErrBudget) {
				return fmt.Errorf("want a budget stop, got %v", err)
			}
			return nil
		}
	}
	for _, c := range []struct {
		name      string
		configure func(*Options)
		run       func(o *Optimizer, root GroupID) error
		collects  bool
	}{
		{"OptimizeCtx", nil, optimize, true},
		{"OptimizeCtx guided", guided, optimize, true},
		{"OptimizeWithLimitCtx", nil, withLimit, true},
		{"OptimizeWithLimitCtx guided", guided, withLimit, true},
		{"budget stop", func(o *Options) { o.Budget.MaxSteps = 3 }, stopped(context.Background()), true},
		{"canceled context", nil, stopped(canceled), false},
		{"MCTS episodes", func(o *Options) { o.Search.Policy = PolicyMCTS }, optimize, false},
		{"widening episodes", func(o *Options) { o.Search.Policy = PolicyWidening }, optimize, false},
		{"OptimizeBatchCtx", nil, func(o *Optimizer, root GroupID) error {
			other := o.InsertQuery(hpChain(3))
			_, err := o.OptimizeBatchCtx(context.Background(), []GroupID{root, other}, []PhysProps{required, nil})
			return err
		}, true},
		{"Rederive and re-optimize", nil, func(o *Optimizer, root GroupID) error {
			if err := optimize(o, root); err != nil {
				return err
			}
			if len(o.memo.moves) != 0 {
				return fmt.Errorf("%d moves left before Rederive", len(o.memo.moves))
			}
			o.Rederive(&hpModel{})
			return optimize(o, root)
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var opts Options
			if c.configure != nil {
				c.configure(&opts)
			}
			o := NewOptimizer(&hpModel{}, &opts)
			if err := c.run(o, o.InsertQuery(hpChain(5))); err != nil {
				t.Fatal(err)
			}
			if n := len(o.memo.moves); n != 0 {
				t.Errorf("%d moves left on the move stack", n)
			}
			if c.collects && cap(o.memo.moves) == 0 {
				t.Error("the search collected no move onto the stack")
			}
			checkMemo(t, o)
		})
	}
}
