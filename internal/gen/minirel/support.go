//go:generate go run repro/cmd/volcano-gen -spec ../testdata/minirel.model -o minirel.go

package minirel

import (
	"math"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// DefaultSupport is the optimizer implementor's code for the generated minirel
// optimizer: cost functions, applicability functions, condition code,
// and ADT glue, reusing the relational catalog, cost record, and
// physical property vector. Together with the generated wiring it forms
// a complete optimizer whose plans must price identically to the
// hand-maintained internal/relopt configuration.
type DefaultSupport struct {
	cat    *rel.Catalog
	params relopt.Params
}

// NewSupport binds the support code to a catalog with the default cost
// weights.
func NewSupport(cat *rel.Catalog) *DefaultSupport {
	return &DefaultSupport{cat: cat, params: relopt.DefaultParams()}
}

// costs declares relopt's cost record as the model's cost ADT.
var costs = core.CostsOf(relopt.Cost{}, relopt.Infinite)

func (s *DefaultSupport) Costs() core.CostSpace { return costs }
func (s *DefaultSupport) AnyProps() core.PhysProps {
	return relopt.Any
}

func (s *DefaultSupport) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	return rel.DeriveProps(s.cat, 0, op, inputs)
}

func props(ctx *core.RuleContext, g core.GroupID) *rel.Props {
	return ctx.LogProps(g).(*rel.Props)
}

// AssocValid checks that the outer join predicate is evaluable in the
// rotated inner join.
func (s *DefaultSupport) AssocValid(ctx *core.RuleContext, b *core.Binding) bool {
	top := b.Expr.Op.(*rel.Join)
	bp := props(ctx, b.Children[0].Children[1].Group)
	cp := props(ctx, b.Children[1].Group)
	return (bp.HasCol(top.A) || cp.HasCol(top.A)) &&
		(bp.HasCol(top.B) || cp.HasCol(top.B))
}

func joinSides(ctx *core.RuleContext, b *core.Binding) (lc, rc rel.ColID, ok bool) {
	j := b.Expr.Op.(*rel.Join)
	lp := props(ctx, b.Children[0].Group)
	rp := props(ctx, b.Children[1].Group)
	switch {
	case lp.HasCol(j.A) && rp.HasCol(j.B):
		return j.A, j.B, true
	case lp.HasCol(j.B) && rp.HasCol(j.A):
		return j.B, j.A, true
	}
	return 0, 0, false
}

func (s *DefaultSupport) ScanApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	if !required.(*relopt.PhysProps).IsAny() {
		return nil, false
	}
	return []core.InputReq{{}}, true
}

func (s *DefaultSupport) ScanCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
	p := props(ctx, b.Group)
	return relopt.Cost{IO: p.Pages(s.params.PageBytes), CPU: p.Rows * s.params.CPUTuple}
}

func (s *DefaultSupport) BuildScan(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &relopt.FileScan{Tab: b.Expr.Op.(*rel.Get).Tab}
}

func (s *DefaultSupport) FilterApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	return []core.InputReq{{Required: []core.PhysProps{required}}}, true
}

func (s *DefaultSupport) FilterCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
	in := props(ctx, b.Children[0].Group)
	return relopt.Cost{CPU: in.Rows * s.params.CPUPred}
}

func (s *DefaultSupport) FilterDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
	return inputs[0]
}

func (s *DefaultSupport) BuildFilter(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	return &relopt.Filter{Preds: []rel.Pred{b.Expr.Op.(*rel.Select).Pred}}
}

func (s *DefaultSupport) HashJoinApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	if len(required.(*relopt.PhysProps).Sort) > 0 {
		return nil, false
	}
	if _, _, ok := joinSides(ctx, b); !ok {
		return nil, false
	}
	return []core.InputReq{{Required: []core.PhysProps{relopt.Any, relopt.Any}}}, true
}

func (s *DefaultSupport) HashJoinCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
	lp := props(ctx, b.Children[0].Group)
	rp := props(ctx, b.Children[1].Group)
	out := props(ctx, b.Group)
	return relopt.Cost{
		IO:  relopt.HashSpillIO(s.params, lp.Pages(s.params.PageBytes), rp.Pages(s.params.PageBytes)),
		CPU: (lp.Rows+rp.Rows)*s.params.CPUHash + out.Rows*s.params.CPUTuple,
	}
}

func (s *DefaultSupport) BuildHashJoin(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	lc, rc, _ := joinSides(ctx, b)
	return &relopt.HashJoin{LeftCol: lc, RightCol: rc}
}

func (s *DefaultSupport) MergeJoinApplic(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
	lc, rc, ok := joinSides(ctx, b)
	if !ok {
		return nil, false
	}
	rp := required.(*relopt.PhysProps)
	switch {
	case len(rp.Sort) == 0:
	case len(rp.Sort) == 1 && !rp.Sort[0].Desc &&
		(rp.Sort[0].Col == lc || rp.Sort[0].Col == rc):
	default:
		return nil, false
	}
	return []core.InputReq{{Required: []core.PhysProps{
		relopt.SortedOn(lc), relopt.SortedOn(rc),
	}}}, true
}

func (s *DefaultSupport) MergeJoinCost(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
	lp := props(ctx, b.Children[0].Group)
	rp := props(ctx, b.Children[1].Group)
	out := props(ctx, b.Group)
	return relopt.Cost{CPU: (lp.Rows+rp.Rows)*s.params.CPUCompare + out.Rows*s.params.CPUTuple}
}

func (s *DefaultSupport) MergeJoinDelivered(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
	rp := required.(*relopt.PhysProps)
	if len(rp.Sort) > 0 {
		return required
	}
	lc, _, _ := joinSides(ctx, b)
	return relopt.SortedOn(lc)
}

func (s *DefaultSupport) BuildMergeJoin(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
	lc, rc, _ := joinSides(ctx, b)
	return &relopt.MergeJoin{LeftCol: lc, RightCol: rc}
}

func (s *DefaultSupport) SortRelax(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (core.PhysProps, core.PhysProps, bool) {
	rp := required.(*relopt.PhysProps)
	if len(rp.Sort) == 0 {
		return nil, nil, false
	}
	return rp.WithoutSort(), required, true
}

func (s *DefaultSupport) SortEnfCost(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost {
	p := lp.(*rel.Props)
	rows := p.Rows
	lg := 1.0
	if rows >= 2 {
		lg = math.Log2(rows)
	}
	return relopt.Cost{
		IO:  2 * p.Pages(s.params.PageBytes) * s.params.SpillIO,
		CPU: rows * lg * s.params.CPUCompare,
	}
}

func (s *DefaultSupport) BuildSort(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
	return &relopt.Sort{Order: required.(*relopt.PhysProps).Sort}
}
