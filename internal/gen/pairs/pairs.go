// Code generated by volcano-gen from the pairs model specification. DO NOT EDIT.

// Package pairs is a query optimizer for the pairs data model, produced
// by the Volcano optimizer generator. It wires the model's operators,
// transformation rules, implementation rules, and enforcers to the
// model-independent search engine; the data-model-specific decisions
// (costs, properties, applicability, condition code) are delegated to
// the Support interface, which the optimizer implementor provides.
package pairs

import "repro/internal/core"

// Operator kinds of the pairs logical algebra, in declaration order.
const (
	KindLEAF core.OpKind = iota + 1
	KindPAIR
)

// Support is the data-model-specific code the optimizer implementor
// supplies before optimizer generation: property and cost functions,
// applicability functions, and condition code, plus the cost and
// physical-property abstract data types.
type Support interface {
	core.CostModel

	// DeriveLogicalProps computes the logical properties of an
	// expression; it encapsulates selectivity estimation.
	DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps
	// AnyProps returns the vacuous physical property vector.
	AnyProps() core.PhysProps
	// LeafCost is the cost function of algorithm LEAF_SCAN.
	LeafCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// PaintCost is the cost function of enforcer PAINT.
	PaintCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost
	// PaintRelax relaxes a requirement that enforcer PAINT can establish.
	PaintRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (relaxed, excluded core.PhysProps, ok bool)
	// PairCost is the cost function of algorithm PAIR_ALG.
	PairCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
}

// LeafScanOp is the generated physical operator of algorithm LEAF_SCAN.
type LeafScanOp struct{}

// Name returns "leaf_scan".
func (*LeafScanOp) Name() string { return "leaf_scan" }

// String returns "leaf_scan".
func (*LeafScanOp) String() string { return "leaf_scan" }

// PairAlgOp is the generated physical operator of algorithm PAIR_ALG.
type PairAlgOp struct{}

// Name returns "pair_alg".
func (*PairAlgOp) Name() string { return "pair_alg" }

// String returns "pair_alg".
func (*PairAlgOp) String() string { return "pair_alg" }

// PaintOp is the generated physical operator of enforcer PAINT.
type PaintOp struct{}

// Name returns "paint".
func (*PaintOp) Name() string { return "paint" }

// String returns "paint".
func (*PaintOp) String() string { return "paint" }

// Model is the generated optimizer model: the core.Model the search
// engine is linked with.
type Model struct {
	s          Support
	transforms []*core.TransformRule
	impls      []*core.ImplRule
	enforcers  []*core.Enforcer
}

var _ core.Model = (*Model)(nil)

// New binds the generated rule set to the implementor's support code.
func New(s Support) *Model {
	m := &Model{s: s}
	m.transforms = []*core.TransformRule{
		{
			Name:    "pair_commute",
			Pattern: core.P(KindPAIR, core.Leaf(), core.Leaf()),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				return ctx.Substitutes(ctx.Node(b.Expr.Op, ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
			},
			Promise: 1,
		},
	}
	m.impls = []*core.ImplRule{
		{
			Name:    "LEAF_SCAN",
			Pattern: core.P(KindLEAF),
			Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
				if !required.Equal(s.AnyProps()) {
					return nil, false
				}
				return anyInputs(s, 0), true
			},
			Cost: s.LeafCost,
			Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
				return &LeafScanOp{}
			},
			Promise: 1,
		},
		{
			Name:    "PAIR_ALG",
			Pattern: core.P(KindPAIR, core.Leaf(), core.Leaf()),
			Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
				if !required.Equal(s.AnyProps()) {
					return nil, false
				}
				return anyInputs(s, 2), true
			},
			Cost: s.PairCost,
			Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
				return &PairAlgOp{}
			},
			Promise: 2,
		},
	}
	m.enforcers = []*core.Enforcer{
		{
			Name:  "PAINT",
			Relax: s.PaintRelax,
			Cost:  s.PaintCost,
			Build: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
				return &PaintOp{}
			},
			Promise: 1,
		},
	}
	return m
}

// Name returns the model name.
func (m *Model) Name() string { return "pairs" }

// DeriveLogicalProps delegates to the support code.
func (m *Model) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	return m.s.DeriveLogicalProps(op, inputs)
}

// TransformationRules returns the generated transformation rules.
func (m *Model) TransformationRules() []*core.TransformRule { return m.transforms }

// ImplementationRules returns the generated implementation rules.
func (m *Model) ImplementationRules() []*core.ImplRule { return m.impls }

// Enforcers returns the generated enforcers.
func (m *Model) Enforcers() []*core.Enforcer { return m.enforcers }

// AnyProps delegates to the support code.
func (m *Model) AnyProps() core.PhysProps { return m.s.AnyProps() }

// Costs delegates to the support code's cost declaration
// (core.CostsOf), the cost type the search engine is instantiated for.
func (m *Model) Costs() core.CostSpace { return m.s.Costs() }

var _ core.Versioned = (*Model)(nil)

// Version returns the model's version token: a fingerprint of the
// generated rule set, mixed with the support code's own token when
// the Support implementation also implements core.Versioned (e.g. to
// reflect catalog or statistics changes). Plan caches key entries by
// this token, so regenerating the optimizer orphans cached plans.
func (m *Model) Version() uint64 {
	const specHash = 0xb84e071514ddc27f
	if v, ok := m.s.(core.Versioned); ok {
		return specHash ^ (v.Version() * 0x9E3779B185EBCA87)
	}
	return specHash
}

// anyInputs builds one vacuous property requirement per input; it is
// the default applicability result for algorithms whose specification
// names no applicability function.
func anyInputs(s Support, n int) []core.InputReq {
	req := make([]core.PhysProps, n)
	for i := range req {
		req[i] = s.AnyProps()
	}
	return []core.InputReq{{Required: req}}
}
