package pairs_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/gen/pairs"
)

// pcost is a one-number cost ADT for the pairs model.
type pcost float64

func (c pcost) Add(o pcost) pcost { return c + o }
func (c pcost) Sub(o pcost) pcost { return c - o }
func (c pcost) Less(o pcost) bool { return c < o }
func (c pcost) String() string    { return fmt.Sprintf("%.0f", float64(c)) }

var pcosts = core.CostsOf(pcost(0), 1e18)

// pcolor is the property vector: 0 = none.
type pcolor int

func (c pcolor) Equal(o core.PhysProps) bool  { return c == o.(pcolor) }
func (c pcolor) Covers(o core.PhysProps) bool { return o.(pcolor) == 0 || c == o.(pcolor) }
func (c pcolor) Hash() uint64                 { return uint64(c) }
func (c pcolor) String() string {
	if c == 0 {
		return ""
	}
	return fmt.Sprintf("paint%d", int(c))
}

// leafOp / pairOp are the model's logical operators, with kinds matching
// the generated declarations.
type leafOp struct{ name string }

func (l *leafOp) Kind() core.OpKind { return pairs.KindLEAF }
func (l *leafOp) Arity() int        { return 0 }
func (l *leafOp) ArgsEqual(o core.LogicalOp) bool {
	return l.name == o.(*leafOp).name
}
func (l *leafOp) ArgsHash() uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(l.name); i++ {
		h = (h ^ uint64(l.name[i])) * 1099511628211
	}
	return h
}
func (l *leafOp) Name() string   { return "LEAF" }
func (l *leafOp) String() string { return "LEAF(" + l.name + ")" }

type pairOp struct{}

func (*pairOp) Kind() core.OpKind             { return pairs.KindPAIR }
func (*pairOp) Arity() int                    { return 2 }
func (*pairOp) ArgsEqual(core.LogicalOp) bool { return true }
func (*pairOp) ArgsHash() uint64              { return 11 }
func (*pairOp) Name() string                  { return "PAIR" }
func (*pairOp) String() string                { return "PAIR" }

// weight is the logical property.
type weight int

func (w weight) String() string { return fmt.Sprintf("w=%d", int(w)) }

// sup is the implementor's support code.
type sup struct{}

func (sup) Costs() core.CostSpace    { return pcosts }
func (sup) AnyProps() core.PhysProps { return pcolor(0) }

func (sup) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	w := weight(1)
	for _, in := range inputs {
		w += in.(weight)
	}
	return w
}

func (sup) LeafCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) pcost {
	return pcost(1)
}

func (sup) PairCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) pcost {
	return pcost(2)
}

func (sup) PaintRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (core.PhysProps, core.PhysProps, bool) {
	if required.(pcolor) == 0 {
		return nil, nil, false
	}
	return pcolor(0), required, true
}

func (sup) PaintCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) pcost {
	return pcost(5)
}

// TestGeneratedDefaults: the generated pairs optimizer — with default
// applicability, default physical operators, and a generated commute
// rule — optimizes a three-leaf query to the closed-form optimum, and
// the paint enforcer (default build) satisfies a color requirement.
func TestGeneratedDefaults(t *testing.T) {
	model := pairs.New(sup{})
	opt := core.NewOptimizer(model, nil)
	tree := core.Node(&pairOp{},
		core.Node(&pairOp{}, core.Node(&leafOp{name: "a"}), core.Node(&leafOp{name: "b"})),
		core.Node(&leafOp{name: "c"}))
	root := opt.InsertQuery(tree)

	plan, err := opt.Optimize(root, nil)
	if err != nil || plan == nil {
		t.Fatalf("optimize: plan=%v err=%v", plan, err)
	}
	// 3 scans + 2 pairs = 3 + 4 = 7.
	if plan.Cost.(pcost) != 7 {
		t.Fatalf("cost = %v, want 7\n%s", plan.Cost, plan.Format())
	}
	if _, ok := plan.Op.(*pairs.PairAlgOp); !ok {
		t.Fatalf("root = %T, want generated PairAlgOp", plan.Op)
	}

	painted, err := opt.Optimize(root, pcolor(3))
	if err != nil || painted == nil {
		t.Fatalf("optimize painted: plan=%v err=%v", painted, err)
	}
	if painted.Cost.(pcost) != 12 {
		t.Fatalf("painted cost = %v, want 12", painted.Cost)
	}
	if _, ok := painted.Op.(*pairs.PaintOp); !ok {
		t.Fatalf("painted root = %T, want generated PaintOp", painted.Op)
	}
	coretest.CheckMemo(t, opt)
	coretest.CheckFixpoint(t, opt)

	// Commute closure: the root class holds both orders of {ab|c} plus
	// rotations are absent (no assoc rule), so exactly... commute only
	// doubles each shape.
	if err := opt.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	if got := len(opt.Memo().Group(root).Exprs()); got != 2 {
		t.Fatalf("root exprs = %d, want 2 (original + commuted)", got)
	}
}
