package core_test

import (
	"fmt"

	"repro/internal/core"
)

// The toy model exercises the search engine with a data model that has
// nothing to do with relations, demonstrating (and testing) the engine's
// data model independence. Its logical algebra has LEAF(name) and the
// binary, commutative PAIR; its physical algebra has toy-scan and two
// pair algorithms; its one physical property is a "color" that the
// paint enforcer establishes and that the colored-pair algorithm can
// deliver directly.
const (
	kindLeaf core.OpKind = 100 + iota
	kindPair
	kindMark
)

type toyLeaf struct{ name string }

func (l *toyLeaf) Kind() core.OpKind { return kindLeaf }
func (l *toyLeaf) Arity() int        { return 0 }
func (l *toyLeaf) ArgsEqual(o core.LogicalOp) bool {
	return l.name == o.(*toyLeaf).name
}
func (l *toyLeaf) ArgsHash() uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(l.name); i++ {
		h = (h ^ uint64(l.name[i])) * 1099511628211
	}
	return h
}
func (l *toyLeaf) Name() string   { return "LEAF" }
func (l *toyLeaf) String() string { return "LEAF(" + l.name + ")" }

type toyPair struct{}

func (*toyPair) Kind() core.OpKind             { return kindPair }
func (*toyPair) Arity() int                    { return 2 }
func (*toyPair) ArgsEqual(core.LogicalOp) bool { return true }
func (*toyPair) ArgsHash() uint64              { return 7 }
func (*toyPair) Name() string                  { return "PAIR" }
func (*toyPair) String() string                { return "PAIR" }

// toyMark is a unary no-op operator; the rule MARK(x) → x proves its
// class equal to its input's class, merging a parent with its child —
// the pathological derivation the memo must tolerate.
type toyMark struct{}

func (*toyMark) Kind() core.OpKind             { return kindMark }
func (*toyMark) Arity() int                    { return 1 }
func (*toyMark) ArgsEqual(core.LogicalOp) bool { return true }
func (*toyMark) ArgsHash() uint64              { return 13 }
func (*toyMark) Name() string                  { return "MARK" }
func (*toyMark) String() string                { return "MARK" }

// toyProps: logical properties are just a weight (leaf count).
type toyProps struct{ weight int }

func (p *toyProps) String() string { return fmt.Sprintf("w=%d", p.weight) }

// toyColor is the physical property vector: 0 = no requirement,
// otherwise a required color code.
type toyColor int

func (c toyColor) Equal(o core.PhysProps) bool  { return c == o.(toyColor) }
func (c toyColor) Covers(o core.PhysProps) bool { return o.(toyColor) == 0 || c == o.(toyColor) }
func (c toyColor) Hash() uint64                 { return uint64(c) }
func (c toyColor) String() string {
	if c == 0 {
		return ""
	}
	return fmt.Sprintf("color%d", int(c))
}

// toyCost is a float cost.
type toyCost float64

func (c toyCost) Add(o toyCost) toyCost   { return c + o }
func (c toyCost) Sub(o toyCost) toyCost   { return c - o }
func (c toyCost) Less(o toyCost) bool     { return c < o }
func (c toyCost) Scale(f float64) toyCost { return toyCost(float64(c) * f) }
func (c toyCost) String() string          { return fmt.Sprintf("%.1f", float64(c)) }

var toyCosts = core.CostsOf(toyCost(0), 1e18)

// toyPhys is every toy physical operator.
type toyPhys struct{ name string }

func (p *toyPhys) Name() string   { return p.name }
func (p *toyPhys) String() string { return p.name }

// toyModel wires the model. Costs: toy-scan 1; plain-pair 2 (delivers no
// color); colored-pair 10 (delivers any required color directly); paint
// enforcer 4. With a color required, the optimum is paint(plain-pair)=6
// locally — unless the excluded-vector machinery is disabled, in which
// case redundant colored-pair-under-paint derivations appear.
type toyModel struct {
	withMarkRule bool
	// commuteBornOff births pair-commute's substitute with pair-commute
	// switched off (ExprTree.Disabled).
	commuteBornOff bool
}

func (m *toyModel) Name() string { return "toy" }

func (m *toyModel) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	w := 1
	for _, in := range inputs {
		w += in.(*toyProps).weight
	}
	return &toyProps{weight: w}
}

func (m *toyModel) TransformationRules() []*core.TransformRule {
	rules := []*core.TransformRule{
		{
			Name:    "pair-commute",
			Pattern: core.P(kindPair, core.Leaf(), core.Leaf()),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				var off uint64
				if m.commuteBornOff {
					off = 1 // pair-commute, rule 0
				}
				return ctx.Substitutes(ctx.NodeWithout(off, &toyPair{},
					ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
			},
		},
		{
			Name: "pair-rotate",
			Pattern: core.P(kindPair,
				core.P(kindPair, core.Leaf(), core.Leaf()), core.Leaf()),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				a := b.Children[0].Children[0].Group
				bb := b.Children[0].Children[1].Group
				c := b.Children[1].Group
				return ctx.Substitutes(ctx.Node(&toyPair{},
					ctx.ClassRef(a),
					ctx.Node(&toyPair{}, ctx.ClassRef(bb), ctx.ClassRef(c))))
			},
		},
	}
	if m.withMarkRule {
		rules = append(rules, &core.TransformRule{
			Name:    "mark-elim",
			Pattern: core.P(kindMark, core.Leaf()),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				return ctx.Substitutes(ctx.ClassRef(b.Children[0].Group))
			},
		})
	}
	return rules
}

func (m *toyModel) ImplementationRules() []*core.ImplRule {
	passthrough := func(required core.PhysProps) ([]core.InputReq, bool) {
		return []core.InputReq{{}}, required.(toyColor) == 0
	}
	return []*core.ImplRule{
		{
			Name:    "leaf->scan",
			Pattern: core.P(kindLeaf),
			Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
				return passthrough(required)
			},
			Cost: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
				return toyCost(1)
			},
			Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
				return &toyPhys{name: "toy-scan"}
			},
			Promise: 2,
		},
		{
			Name:    "pair->plain",
			Pattern: core.P(kindPair, core.Leaf(), core.Leaf()),
			Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
				if required.(toyColor) != 0 {
					return nil, false
				}
				return []core.InputReq{{Required: []core.PhysProps{toyColor(0), toyColor(0)}}}, true
			},
			Cost: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
				return toyCost(2)
			},
			Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
				return &toyPhys{name: "plain-pair"}
			},
			Promise: 2,
		},
		{
			Name:    "pair->colored",
			Pattern: core.P(kindPair, core.Leaf(), core.Leaf()),
			Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
				if required.(toyColor) == 0 {
					return nil, false
				}
				return []core.InputReq{{Required: []core.PhysProps{toyColor(0), toyColor(0)}}}, true
			},
			Cost: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
				return toyCost(10)
			},
			Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
				return &toyPhys{name: "colored-pair"}
			},
			Promise: 1,
		},
	}
}

func (m *toyModel) Enforcers() []*core.Enforcer {
	return []*core.Enforcer{{
		Name: "paint",
		Relax: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (core.PhysProps, core.PhysProps, bool) {
			if required.(toyColor) == 0 {
				return nil, nil, false
			}
			return toyColor(0), required, true
		},
		Cost: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost {
			return toyCost(4)
		},
		Build: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
			return &toyPhys{name: "paint"}
		},
	}}
}

func (m *toyModel) AnyProps() core.PhysProps { return toyColor(0) }
func (m *toyModel) Costs() core.CostSpace    { return toyCosts }

// leaf builds a toy leaf node.
func leaf(name string) *core.ExprTree { return core.Node(&toyLeaf{name: name}) }

// pair builds a toy pair node.
func pair(l, r *core.ExprTree) *core.ExprTree { return core.Node(&toyPair{}, l, r) }

// leftDeepPair builds PAIR(...PAIR(PAIR(l0,l1),l2)...,ln).
func leftDeepPair(names ...string) *core.ExprTree {
	t := leaf(names[0])
	for _, n := range names[1:] {
		t = pair(t, leaf(n))
	}
	return t
}
