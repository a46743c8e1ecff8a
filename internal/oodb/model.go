package oodb

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen/minipath"
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

// Support is the object data model's support code: the catalog, cost
// weights, and the property, cost, applicability, build and condition
// functions that internal/gen/minipath, generated from
// internal/gen/testdata/minipath.model, wires to the search engine.
type Support struct {
	// Cat is the class catalog.
	Cat *Catalog
	// P are the cost weights.
	P Params
}

// New builds the object model's optimizer: the generated minipath
// rules over this package's support code.
func New(cat *Catalog, p Params) *minipath.Model[Cost] {
	if p.PageBytes == 0 {
		p = DefaultParams()
	}
	return minipath.New[Cost](&Support{Cat: cat, P: p})
}

// costs declares Cost as the model's cost ADT: 0 and Infinite.
var costs = core.CostsOf(Cost(0), Infinite)

// Costs returns the cost declaration.
func (s *Support) Costs() core.CostSpace { return costs }

// AnyProps returns the vacuous vector.
func (s *Support) AnyProps() core.PhysProps { return Any }

// DeriveLogicalProps tracks the scope's head class and cardinality; the
// head class is the "type" of the intermediate result in this
// many-sorted algebra, which rule condition code inspects.
func (s *Support) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
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

func reqOf(p core.PhysProps) *PhysProps { return p.(*PhysProps) }

func oprops(ctx *core.RuleContext, g core.GroupID) *Props {
	return ctx.LogProps(g).(*Props)
}

// The exported methods below are the support functions minipath.model
// names, in the exact shapes the optimizer generator expects.

// ScanApplic: a stored extent is never assembled, so extent-scan
// qualifies only for the vacuous requirement.
func (s *Support) ScanApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	if reqOf(required).Assembled {
		return nil, false
	}
	return []core.InputReq{{}}, true
}

// ScanCost prices a sequential extent read.
func (s *Support) ScanCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	cls := b.Expr.Op.(*GetSet).Cls
	pages := float64(cls.Objects*int64(cls.ObjBytes)) / float64(s.P.PageBytes)
	if pages < 1 {
		pages = 1
	}
	return costOf(pages)
}

// BuildScan constructs the extent-scan operator.
func (s *Support) BuildScan(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &ExtentScan{Cls: b.Expr.Op.(*GetSet).Cls}
}

// FilterTypeOK is the condition code of the filter rule: the tested
// attribute must be a scalar of the head class — the type check of this
// many-sorted algebra.
func (s *Support) FilterTypeOK(ctx *core.RuleContext, b *core.Binding) bool {
	sel := b.Expr.Op.(*Select)
	_, ok := oprops(ctx, b.Group).Head.Scalars[sel.Attr]
	return ok
}

// FilterApplic passes the requirement through: filtering preserves
// physical properties.
func (s *Support) FilterApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	return []core.InputReq{{Required: []core.PhysProps{required}}}, true
}

// FilterCost prices one predicate evaluation per input object.
func (s *Support) FilterCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	return costOf(oprops(ctx, b.Children[0].Group).Objects * s.P.CPUPred)
}

// FilterDelivered reports the input's actual properties.
func (s *Support) FilterDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
	return inputs[0]
}

// BuildFilter constructs the filter operator.
func (s *Support) BuildFilter(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	sel := b.Expr.Op.(*Select)
	return &FilterObjects{Pred: fmt.Sprintf("%s %s %d", sel.Attr, sel.Op, sel.Val), Sel: sel}
}

// ChaseApplic: pointer chasing delivers unassembled objects, so it
// qualifies only when assembledness is not required.
func (s *Support) ChaseApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	if reqOf(required).Assembled {
		return nil, false
	}
	return []core.InputReq{{Required: []core.PhysProps{Any}}}, true
}

// ChaseCost prices one random I/O per input object.
func (s *Support) ChaseCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	return costOf(oprops(ctx, b.Children[0].Group).Objects * s.P.RandomIO)
}

// BuildChase constructs the pointer-chase operator.
func (s *Support) BuildChase(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &PointerChase{Attr: b.Expr.Op.(*Materialize).Attr}
}

// TraverseApplic: the assembled traversal needs an assembled input and
// can serve any requirement (assembled covers unassembled).
func (s *Support) TraverseApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	return []core.InputReq{{Required: []core.PhysProps{Assembled}}}, true
}

// TraverseCost prices an in-memory pointer step per object.
func (s *Support) TraverseCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
	return costOf(oprops(ctx, b.Children[0].Group).Objects * s.P.CPUStep)
}

// TraverseDelivered: components of assembled objects are themselves
// assembled.
func (s *Support) TraverseDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
	return Assembled
}

// BuildTraverse constructs the assembled-traverse operator.
func (s *Support) BuildTraverse(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &AssembledTraverse{Attr: b.Expr.Op.(*Materialize).Attr}
}

// AssemblyRelax: the assembly enforcer establishes assembledness over an
// unassembled input; the original requirement is excluded for the input
// search.
func (s *Support) AssemblyRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (core.PhysProps, core.PhysProps, bool) {
	if !reqOf(required).Assembled {
		return nil, nil, false
	}
	return Any, required, true
}

// AssemblyCost prices batched window reads of each object's component
// closure.
func (s *Support) AssemblyCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) Cost {
	p := lp.(*Props)
	levels := p.Head.Depth() + 1
	return costOf(p.Objects * float64(levels) * s.P.AssemblyIO)
}

// BuildAssembly constructs the assembly operator.
func (s *Support) BuildAssembly(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
	return &Assembly{Levels: lp.(*Props).Head.Depth() + 1}
}
