package oodb

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// PhysProps is the object model's physical property vector: whether the
// objects in scope are assembled — memory-resident complex objects with
// their referenced components — which is exactly the "assembledness"
// property the paper proposes for object-oriented query optimization.
type PhysProps struct {
	// Assembled reports component residency.
	Assembled bool
}

var _ core.PhysProps = (*PhysProps)(nil)

// Any is the vacuous vector.
var Any = &PhysProps{}

// Assembled is the assembledness requirement.
var Assembled = &PhysProps{Assembled: true}

// Equal compares vectors.
func (p *PhysProps) Equal(o core.PhysProps) bool { return p.Assembled == o.(*PhysProps).Assembled }

// Covers reports whether the receiver satisfies a request for o:
// assembled output satisfies an unassembled request, not vice versa.
func (p *PhysProps) Covers(o core.PhysProps) bool {
	return p.Assembled || !o.(*PhysProps).Assembled
}

// Hash is consistent with Equal.
func (p *PhysProps) Hash() uint64 {
	if p.Assembled {
		return 2
	}
	return 1
}

// String renders the vector.
func (p *PhysProps) String() string {
	if p.Assembled {
		return "assembled"
	}
	return ""
}

// Cost is the object model's cost ADT: a single number of I/O-equivalent
// units, showing that cost structure is entirely up to the model. It
// counts millionths of a unit as an integer, so sums and differences
// are exact, as core.CostADT requires; each cost formula rounds once,
// through costOf. Finite sums saturate at a ceiling below Infinite.
type Cost int64

// Infinite is the cost beyond every plan, the default limit.
const Infinite Cost = math.MaxInt64

const (
	// perUnit is the number of Cost steps per I/O-equivalent unit.
	perUnit = 1e6
	// ceiling bounds every finite cost, so a sum of two never overflows.
	ceiling = 1<<62 - 1
)

var _ core.CostADT[Cost] = Cost(0)

// costOf rounds a formula's cost, in units, to the nearest Cost step.
func costOf(x float64) Cost {
	u := math.Round(x * perUnit)
	if !(u < ceiling) {
		return ceiling
	}
	return Cost(u)
}

// sat clamps a sum of two finite costs to ±ceiling.
func sat(c Cost) Cost { return max(-ceiling, min(c, ceiling)) }

// Add sums costs; a sum with Infinite is Infinite.
func (c Cost) Add(o Cost) Cost {
	if c == Infinite || o == Infinite {
		return Infinite
	}
	return sat(c + o)
}

// Sub subtracts costs; infinity stays infinite.
func (c Cost) Sub(o Cost) Cost {
	switch {
	case c == Infinite:
		return c
	case o == Infinite:
		return -ceiling
	}
	return sat(c - o)
}

// Less compares costs.
func (c Cost) Less(o Cost) bool { return c < o }

// String renders the cost.
func (c Cost) String() string {
	if c == Infinite {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(c)/perUnit)
}

// Params are the object model's cost weights, in units of one
// sequential page read.
type Params struct {
	// PageBytes is the page size.
	PageBytes int
	// RandomIO is the cost of dereferencing one unassembled object.
	RandomIO float64
	// AssemblyIO is the per-object, per-closure-level cost of the
	// assembly operator; window-based batching makes it cheaper than
	// one random I/O per reference.
	AssemblyIO float64
	// CPUStep is the cost of one in-memory pointer traversal.
	CPUStep float64
	// CPUPred is the cost of one predicate evaluation.
	CPUPred float64
}

// DefaultParams returns weights under which pointer chasing wins short
// paths and assembly wins longer ones.
func DefaultParams() Params {
	return Params{
		PageBytes:  4096,
		RandomIO:   1.0,
		AssemblyIO: 0.45,
		CPUStep:    0.001,
		CPUPred:    0.0005,
	}
}

// Physical operators.

// ExtentScan reads a class extent sequentially.
type ExtentScan struct {
	// Cls is the scanned class.
	Cls *Class
}

// Name returns "extent-scan".
func (e *ExtentScan) Name() string { return "extent-scan" }

// String renders the operator.
func (e *ExtentScan) String() string { return "extent-scan(" + e.Cls.Name + ")" }

// PointerChase implements MATERIALIZE by dereferencing each object's
// attribute individually: one random I/O per input object.
type PointerChase struct {
	// Attr is the navigated attribute.
	Attr string
}

// Name returns "pointer-chase".
func (p *PointerChase) Name() string { return "pointer-chase" }

// String renders the operator.
func (p *PointerChase) String() string { return "pointer-chase(" + p.Attr + ")" }

// AssembledTraverse implements MATERIALIZE over assembled objects: the
// component is already resident, so navigation is a memory access.
type AssembledTraverse struct {
	// Attr is the navigated attribute.
	Attr string
}

// Name returns "assembled-traverse".
func (a *AssembledTraverse) Name() string { return "assembled-traverse" }

// String renders the operator.
func (a *AssembledTraverse) String() string { return "assembled-traverse(" + a.Attr + ")" }

// FilterObjects implements SELECT.
type FilterObjects struct {
	// Pred is the displayed predicate.
	Pred string
	// Sel is the implemented selection, kept for the runtime.
	Sel *Select
}

// Name returns "filter".
func (f *FilterObjects) Name() string { return "filter" }

// String renders the operator.
func (f *FilterObjects) String() string { return "filter(" + f.Pred + ")" }

// Assembly is the enforcer of assembledness: Keller, Graefe & Maier's
// assembly operator, fetching the component closure of each object in
// scope with batched window reads.
type Assembly struct {
	// Levels is the closure depth assembled.
	Levels int
}

// Name returns "assembly".
func (a *Assembly) Name() string { return "assembly" }

// String renders the operator.
func (a *Assembly) String() string { return fmt.Sprintf("assembly(levels=%d)", a.Levels) }

// Model is the object data model description for the optimizer
// generator framework.
type Model struct {
	// Cat is the class catalog.
	Cat *Catalog
	// P are the cost weights.
	P Params
}

var _ core.Model = (*Model)(nil)

// New builds the model.
func New(cat *Catalog, p Params) *Model {
	if p.PageBytes == 0 {
		p = DefaultParams()
	}
	return &Model{Cat: cat, P: p}
}

// Name returns "oodb".
func (m *Model) Name() string { return "oodb" }

// costs declares Cost as the model's cost ADT: 0 and Infinite.
var costs = core.CostsOf(Cost(0), Infinite)

// Costs returns the cost declaration.
func (m *Model) Costs() core.CostSpace { return costs }

// AnyProps returns the vacuous vector.
func (m *Model) AnyProps() core.PhysProps { return Any }

// DeriveLogicalProps tracks the scope's head class and cardinality; the
// head class is the "type" of the intermediate result in this
// many-sorted algebra, which rule condition code inspects.
func (m *Model) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	switch o := op.(type) {
	case *GetSet:
		return &Props{Head: o.Cls, Objects: float64(o.Cls.Objects)}
	case *Materialize:
		in := inputs[0].(*Props)
		target := in.Head.Refs[o.Attr]
		if target == nil {
			panic(fmt.Sprintf("oodb: class %s has no reference %q", in.Head.Name, o.Attr))
		}
		return &Props{Head: target, Objects: in.Objects, PathLen: in.PathLen + 1}
	case *Select:
		in := inputs[0].(*Props)
		sel := 1.0 / 3
		if d, ok := in.Head.Scalars[o.Attr]; ok && o.Op == CmpEQ {
			sel = 1 / float64(d)
		}
		return &Props{Head: in.Head, Objects: in.Objects * sel, PathLen: in.PathLen}
	}
	panic(fmt.Sprintf("oodb: unknown operator %T", op))
}

// TransformationRules: selections over the same head commute; that is
// the only logical equivalence of this small path algebra — the
// interesting choices here are physical, which is precisely why
// assembledness is modeled as a physical property.
func (m *Model) TransformationRules() []*core.TransformRule {
	return []*core.TransformRule{{
		Name: "select-commute",
		Pattern: core.P(KindSelect,
			core.P(KindSelect, core.Leaf())),
		Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			outer := b.Expr.Op
			inner := b.Children[0].Expr.Op
			in := b.Children[0].Children[0].Group
			return ctx.Substitutes(
				ctx.Node(inner, ctx.Node(outer, ctx.ClassRef(in))))
		},
		Promise: 1,
	}}
}

func reqOf(p core.PhysProps) *PhysProps { return p.(*PhysProps) }

func oprops(ctx *core.RuleContext, g core.GroupID) *Props {
	return ctx.LogProps(g).(*Props)
}

// The exported methods below are the model's support functions in the
// exact shapes the optimizer generator expects: *Model implements the
// Support interface of the generated package internal/gen/minipath, so
// the hand-maintained wiring here and the generated wiring share one
// implementation.

// ScanApplic: a stored extent is never assembled, so extent-scan
// qualifies only for the vacuous requirement.
func (m *Model) ScanApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	if reqOf(required).Assembled {
		return nil, false
	}
	return []core.InputReq{{}}, true
}

// ScanCost prices a sequential extent read.
func (m *Model) ScanCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	cls := b.Expr.Op.(*GetSet).Cls
	pages := float64(cls.Objects*int64(cls.ObjBytes)) / float64(m.P.PageBytes)
	if pages < 1 {
		pages = 1
	}
	return costOf(pages)
}

// BuildScan constructs the extent-scan operator.
func (m *Model) BuildScan(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &ExtentScan{Cls: b.Expr.Op.(*GetSet).Cls}
}

// FilterTypeOK is the condition code of the filter rule: the tested
// attribute must be a scalar of the head class — the type check of this
// many-sorted algebra.
func (m *Model) FilterTypeOK(ctx *core.RuleContext, b *core.Binding) bool {
	sel := b.Expr.Op.(*Select)
	_, ok := oprops(ctx, b.Group).Head.Scalars[sel.Attr]
	return ok
}

// FilterApplic passes the requirement through: filtering preserves
// physical properties.
func (m *Model) FilterApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	return []core.InputReq{{Required: []core.PhysProps{required}}}, true
}

// FilterCost prices one predicate evaluation per input object.
func (m *Model) FilterCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	return costOf(oprops(ctx, b.Children[0].Group).Objects * m.P.CPUPred)
}

// FilterDelivered reports the input's actual properties.
func (m *Model) FilterDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
	return inputs[0]
}

// BuildFilter constructs the filter operator.
func (m *Model) BuildFilter(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	sel := b.Expr.Op.(*Select)
	return &FilterObjects{Pred: fmt.Sprintf("%s %s %d", sel.Attr, sel.Op, sel.Val), Sel: sel}
}

// ChaseApplic: pointer chasing delivers unassembled objects, so it
// qualifies only when assembledness is not required.
func (m *Model) ChaseApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	if reqOf(required).Assembled {
		return nil, false
	}
	return []core.InputReq{{Required: []core.PhysProps{Any}}}, true
}

// ChaseCost prices one random I/O per input object.
func (m *Model) ChaseCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	return costOf(oprops(ctx, b.Children[0].Group).Objects * m.P.RandomIO)
}

// BuildChase constructs the pointer-chase operator.
func (m *Model) BuildChase(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &PointerChase{Attr: b.Expr.Op.(*Materialize).Attr}
}

// TraverseApplic: the assembled traversal needs an assembled input and
// can serve any requirement (assembled covers unassembled).
func (m *Model) TraverseApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	return []core.InputReq{{Required: []core.PhysProps{Assembled}}}, true
}

// TraverseCost prices an in-memory pointer step per object.
func (m *Model) TraverseCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	return costOf(oprops(ctx, b.Children[0].Group).Objects * m.P.CPUStep)
}

// TraverseDelivered: components of assembled objects are themselves
// assembled.
func (m *Model) TraverseDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
	return Assembled
}

// BuildTraverse constructs the assembled-traverse operator.
func (m *Model) BuildTraverse(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &AssembledTraverse{Attr: b.Expr.Op.(*Materialize).Attr}
}

// AssemblyRelax: the assembly enforcer establishes assembledness over an
// unassembled input; the original requirement is excluded for the input
// search.
func (m *Model) AssemblyRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (core.PhysProps, core.PhysProps, bool) {
	if !reqOf(required).Assembled {
		return nil, nil, false
	}
	return Any, required, true
}

// AssemblyCost prices batched window reads of each object's component
// closure.
func (m *Model) AssemblyCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) Cost {
	p := lp.(*Props)
	levels := p.Head.Depth() + 1
	return costOf(p.Objects * float64(levels) * m.P.AssemblyIO)
}

// BuildAssembly constructs the assembly operator.
func (m *Model) BuildAssembly(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
	return &Assembly{Levels: lp.(*Props).Head.Depth() + 1}
}

// ImplementationRules maps the object operators to algorithms, wiring
// the exported support methods.
func (m *Model) ImplementationRules() []*core.ImplRule {
	return []*core.ImplRule{
		{
			Name:          "getset->extent-scan",
			Pattern:       core.P(KindGetSet),
			Applicability: m.ScanApplic,
			Cost:          core.AlgCost(m.ScanCost),
			Build:         m.BuildScan,
			Promise:       2,
		},
		{
			Name:          "select->filter",
			Pattern:       core.P(KindSelect, core.Leaf()),
			Condition:     m.FilterTypeOK,
			Applicability: m.FilterApplic,
			Cost:          core.AlgCost(m.FilterCost),
			Delivered:     m.FilterDelivered,
			Build:         m.BuildFilter,
			Promise:       2,
		},
		{
			Name:          "materialize->pointer-chase",
			Pattern:       core.P(KindMaterialize, core.Leaf()),
			Applicability: m.ChaseApplic,
			Cost:          core.AlgCost(m.ChaseCost),
			Build:         m.BuildChase,
			Promise:       2,
		},
		{
			Name:          "materialize->assembled-traverse",
			Pattern:       core.P(KindMaterialize, core.Leaf()),
			Applicability: m.TraverseApplic,
			Cost:          core.AlgCost(m.TraverseCost),
			Delivered:     m.TraverseDelivered,
			Build:         m.BuildTraverse,
			Promise:       2,
		},
	}
}

// Enforcers returns the assembly operator as the enforcer of
// assembledness.
func (m *Model) Enforcers() []*core.Enforcer {
	return []*core.Enforcer{{
		Name:    "assembly",
		Relax:   m.AssemblyRelax,
		Cost:    core.EnfCost(m.AssemblyCost),
		Build:   m.BuildAssembly,
		Promise: 1,
	}}
}
