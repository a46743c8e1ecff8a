// Code generated by volcano-gen from the minirel model specification. DO NOT EDIT.

// Package minirel is a query optimizer for the minirel data model, produced
// by the Volcano optimizer generator. It wires the model's operators,
// transformation rules, implementation rules, and enforcers to the
// model-independent search engine; the data-model-specific decisions
// (costs, properties, applicability, condition code) are delegated to
// the Support interface, which the optimizer implementor provides.
package minirel

import "repro/internal/core"

// Operator kinds of the minirel logical algebra, in declaration order.
const (
	KindGET core.OpKind = iota + 1
	KindSELECT
	KindJOIN
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
	// AssocValid is the condition code of transformation rule join_assoc.
	AssocValid(ctx *core.RuleContext, b *core.Binding) bool
	// BuildFilter constructs the physical operator of algorithm FILTER.
	BuildFilter(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildHashJoin constructs the physical operator of algorithm HASH_JOIN.
	BuildHashJoin(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildMergeJoin constructs the physical operator of algorithm MERGE_JOIN.
	BuildMergeJoin(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildScan constructs the physical operator of algorithm FILESCAN.
	BuildScan(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildSort constructs the physical operator of enforcer SORT.
	BuildSort(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp
	// FilterApplic is the applicability function of algorithm FILTER.
	FilterApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// FilterCost is the cost function of algorithm FILTER.
	FilterCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// FilterDelivered computes the properties delivered by algorithm FILTER.
	FilterDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps
	// HashJoinApplic is the applicability function of algorithm HASH_JOIN.
	HashJoinApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// HashJoinCost is the cost function of algorithm HASH_JOIN.
	HashJoinCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// MergeJoinApplic is the applicability function of algorithm MERGE_JOIN.
	MergeJoinApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// MergeJoinCost is the cost function of algorithm MERGE_JOIN.
	MergeJoinCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// MergeJoinDelivered computes the properties delivered by algorithm MERGE_JOIN.
	MergeJoinDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps
	// ScanApplic is the applicability function of algorithm FILESCAN.
	ScanApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// ScanCost is the cost function of algorithm FILESCAN.
	ScanCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// SortEnfCost is the cost function of enforcer SORT.
	SortEnfCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost
	// SortRelax relaxes a requirement that enforcer SORT can establish.
	SortRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (relaxed, excluded core.PhysProps, ok bool)
}

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
			Name:    "join_commute",
			Pattern: core.P(KindJOIN, core.Leaf(), core.Leaf()),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				return ctx.Substitutes(ctx.Node(b.Expr.Op, ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
			},
			Promise: 1,
		},
		{
			Name:      "join_assoc",
			Pattern:   core.P(KindJOIN, core.P(KindJOIN, core.Leaf(), core.Leaf()), core.Leaf()),
			Condition: s.AssocValid,
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				return ctx.Substitutes(ctx.Node(b.Children[0].Expr.Op, ctx.ClassRef(b.Children[0].Children[0].Group), ctx.Node(b.Expr.Op, ctx.ClassRef(b.Children[0].Children[1].Group), ctx.ClassRef(b.Children[1].Group))))
			},
			Promise: 1,
		},
	}
	m.impls = []*core.ImplRule{
		{
			Name:          "FILESCAN",
			Pattern:       core.P(KindGET),
			Applicability: s.ScanApplic,
			Cost:          s.ScanCost,
			Build:         s.BuildScan,
			Promise:       2,
		},
		{
			Name:          "FILTER",
			Pattern:       core.P(KindSELECT, core.Leaf()),
			Applicability: s.FilterApplic,
			Cost:          s.FilterCost,
			Delivered:     s.FilterDelivered,
			Build:         s.BuildFilter,
			Promise:       2,
		},
		{
			Name:          "HASH_JOIN",
			Pattern:       core.P(KindJOIN, core.Leaf(), core.Leaf()),
			Applicability: s.HashJoinApplic,
			Cost:          s.HashJoinCost,
			Build:         s.BuildHashJoin,
			Promise:       3,
		},
		{
			Name:          "MERGE_JOIN",
			Pattern:       core.P(KindJOIN, core.Leaf(), core.Leaf()),
			Applicability: s.MergeJoinApplic,
			Cost:          s.MergeJoinCost,
			Delivered:     s.MergeJoinDelivered,
			Build:         s.BuildMergeJoin,
			Promise:       2,
		},
	}
	m.enforcers = []*core.Enforcer{
		{
			Name:    "SORT",
			Relax:   s.SortRelax,
			Cost:    s.SortEnfCost,
			Build:   s.BuildSort,
			Promise: 1,
		},
	}
	return m
}

// Name returns the model name.
func (m *Model) Name() string { return "minirel" }

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
	const specHash = 0xd46abc8fca0abba0
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
