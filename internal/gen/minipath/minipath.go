// Code generated by volcano-gen from the minipath model specification. DO NOT EDIT.

// Package minipath is a query optimizer for the minipath data model, produced
// by the Volcano optimizer generator. It wires the model's operators,
// transformation rules, implementation rules, and enforcers to the
// model-independent search engine; the data-model-specific decisions
// (costs, properties, applicability, condition code) are delegated to
// the Support interface, which the optimizer implementor provides.
package minipath

import "repro/internal/core"

// Operator kinds of the minipath logical algebra, in declaration order.
const (
	KindGETSET core.OpKind = iota + 1
	KindMATERIALIZE
	KindSELECT
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
	// AssemblyCost is the cost function of enforcer ASSEMBLY.
	AssemblyCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost
	// AssemblyRelax relaxes a requirement that enforcer ASSEMBLY can establish.
	AssemblyRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (relaxed, excluded core.PhysProps, ok bool)
	// BuildAssembly constructs the physical operator of enforcer ASSEMBLY.
	BuildAssembly(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp
	// BuildChase constructs the physical operator of algorithm POINTER_CHASE.
	BuildChase(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildFilter constructs the physical operator of algorithm FILTER.
	BuildFilter(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildScan constructs the physical operator of algorithm EXTENT_SCAN.
	BuildScan(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// BuildTraverse constructs the physical operator of algorithm ASSEMBLED_TRAVERSE.
	BuildTraverse(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp
	// ChaseApplic is the applicability function of algorithm POINTER_CHASE.
	ChaseApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// ChaseCost is the cost function of algorithm POINTER_CHASE.
	ChaseCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// FilterApplic is the applicability function of algorithm FILTER.
	FilterApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// FilterCost is the cost function of algorithm FILTER.
	FilterCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// FilterDelivered computes the properties delivered by algorithm FILTER.
	FilterDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps
	// FilterTypeOK is the condition code of implementation rule FILTER.
	FilterTypeOK(ctx *core.RuleContext, b *core.Binding) bool
	// ScanApplic is the applicability function of algorithm EXTENT_SCAN.
	ScanApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// ScanCost is the cost function of algorithm EXTENT_SCAN.
	ScanCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// TraverseApplic is the applicability function of algorithm ASSEMBLED_TRAVERSE.
	TraverseApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)
	// TraverseCost is the cost function of algorithm ASSEMBLED_TRAVERSE.
	TraverseCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost
	// TraverseDelivered computes the properties delivered by algorithm ASSEMBLED_TRAVERSE.
	TraverseDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps
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
			Name:    "select_commute",
			Pattern: core.P(KindSELECT, core.P(KindSELECT, core.Leaf())),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				return ctx.Substitutes(ctx.Node(b.Children[0].Expr.Op, ctx.Node(b.Expr.Op, ctx.ClassRef(b.Children[0].Children[0].Group))))
			},
			Promise: 1,
		},
	}
	m.impls = []*core.ImplRule{
		{
			Name:          "EXTENT_SCAN",
			Pattern:       core.P(KindGETSET),
			Applicability: s.ScanApplic,
			Cost:          s.ScanCost,
			Build:         s.BuildScan,
			Promise:       2,
		},
		{
			Name:          "FILTER",
			Pattern:       core.P(KindSELECT, core.Leaf()),
			Condition:     s.FilterTypeOK,
			Applicability: s.FilterApplic,
			Cost:          s.FilterCost,
			Delivered:     s.FilterDelivered,
			Build:         s.BuildFilter,
			Promise:       2,
		},
		{
			Name:          "POINTER_CHASE",
			Pattern:       core.P(KindMATERIALIZE, core.Leaf()),
			Applicability: s.ChaseApplic,
			Cost:          s.ChaseCost,
			Build:         s.BuildChase,
			Promise:       2,
		},
		{
			Name:          "ASSEMBLED_TRAVERSE",
			Pattern:       core.P(KindMATERIALIZE, core.Leaf()),
			Applicability: s.TraverseApplic,
			Cost:          s.TraverseCost,
			Delivered:     s.TraverseDelivered,
			Build:         s.BuildTraverse,
			Promise:       2,
		},
	}
	m.enforcers = []*core.Enforcer{
		{
			Name:    "ASSEMBLY",
			Relax:   s.AssemblyRelax,
			Cost:    s.AssemblyCost,
			Build:   s.BuildAssembly,
			Promise: 1,
		},
	}
	return m
}

// Name returns the model name.
func (m *Model) Name() string { return "minipath" }

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
	const specHash = 0x247791e5ce6c6a1b
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
