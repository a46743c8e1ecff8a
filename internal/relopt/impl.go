package relopt

import (
	"math"

	"repro/internal/core"
	"repro/internal/rel"
)

// props fetches the relational logical properties of a class.
func props(ctx *core.RuleContext, g core.GroupID) *rel.Props {
	return ctx.LogProps(g).(*rel.Props)
}

// reqProps narrows the engine's abstract vector to the relational one.
func reqProps(p core.PhysProps) *PhysProps { return p.(*PhysProps) }

// joinSides resolves which side of a join binding supplies each column
// of the canonicalized predicate pair. ok is false when the binding
// cannot evaluate the predicate (the columns do not span the inputs).
func joinSides(ctx *core.RuleContext, left, right core.GroupID, j *rel.Join) (lc, rc rel.ColID, ok bool) {
	lp, rp := props(ctx, left), props(ctx, right)
	switch {
	case lp.HasCol(j.A) && rp.HasCol(j.B):
		return j.A, j.B, true
	case lp.HasCol(j.B) && rp.HasCol(j.A):
		return j.B, j.A, true
	}
	return 0, 0, false
}

// log2 returns log₂(n), at least 1, for sort cost formulas.
func log2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}

// The functions below build each implementation rule, once per
// structural configuration (ruleTables); a callback reads the model it
// runs for through modelOf. The rule set is the paper's: file scan for GET, filter for SELECT, merge-join
// and hybrid hash join for JOIN — plus projection (separate and fused
// into join procedures), intersection, grouping, and optional
// nested-loops join for the extended examples.

// storedOrder returns the physical properties a scan of the table
// delivers: its clustered sort order, serial placement.
func storedOrder(t *rel.Table) *PhysProps {
	if len(t.Ordered) == 0 {
		return Any
	}
	order := make([]OrderCol, len(t.Ordered))
	for i, c := range t.Ordered {
		order[i] = OrderCol{Col: c}
	}
	return &PhysProps{Sort: order}
}

// fileScanRule implements GET by filescan. The scan delivers the
// relation's stored sort order (none for heaps) and is always serial,
// so it qualifies for any requirement that order covers.
func fileScanRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "get->filescan",
		Pattern: core.P(rel.KindGet),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			delivered := storedOrder(b.Expr.Op.(*rel.Get).Tab)
			if !delivered.Covers(reqProps(required)) {
				return nil, false
			}
			return []core.InputReq{{}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			return m.scanCost(props(ctx, b.Group)).cost()
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			return storedOrder(b.Expr.Op.(*rel.Get).Tab)
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &FileScan{Tab: b.Expr.Op.(*rel.Get).Tab}
		},
		Promise: 2,
	}
}

// filterRule implements SELECT by filter. Filtering preserves every
// physical property, so the requirement passes through to the input and
// whatever the input delivers is delivered.
func filterRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "select->filter",
		Pattern: core.P(rel.KindSelect, core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			return []core.InputReq{{Required: []core.PhysProps{required}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			return m.scaled(required, m.filterCost(props(ctx, b.Children[0].Group)))
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			return inputs[0]
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &Filter{Preds: []rel.Pred{b.Expr.Op.(*rel.Select).Pred}}
		},
		Promise: 2,
	}
}

// projectRule implements PROJECT by a standalone projection operator.
// The projection preserves order on the columns it keeps.
func projectRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "project->project",
		Pattern: core.P(rel.KindProject, core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			return []core.InputReq{{Required: []core.PhysProps{required}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			return m.scaled(required, m.projectCost(props(ctx, b.Children[0].Group)))
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			return trimToCols(inputs[0].(*PhysProps), b.Expr.Op.(*rel.Project).Cols)
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &ProjectOp{Cols: b.Expr.Op.(*rel.Project).Cols}
		},
		Promise: 2,
	}
}

// trimToCols cuts a delivered sort order at the first column outside the
// retained set, since ordering on a discarded column is meaningless to
// consumers.
func trimToCols(p *PhysProps, cols []rel.ColID) *PhysProps {
	keep := make(map[rel.ColID]bool, len(cols))
	for _, c := range cols {
		keep[c] = true
	}
	n := 0
	for _, oc := range p.Sort {
		if !keep[oc.Col] {
			break
		}
		n++
	}
	if n == len(p.Sort) {
		return p
	}
	return &PhysProps{Sort: p.Sort[:n], Part: p.Part}
}

// mergeJoinApplicability is shared by the plain and fused merge-join
// rules: the paper's canonical example. When the join result must be
// sorted on a join attribute, merge-join qualifies with the requirement
// that its inputs be sorted; hybrid hash join does not qualify.
func (m *Model) mergeJoinApplicability(ctx *core.RuleContext, left, right core.GroupID, j *rel.Join, required *PhysProps, projCols []rel.ColID) ([]core.InputReq, bool) {
	lc, rc, ok := joinSides(ctx, left, right, j)
	if !ok {
		return nil, false
	}
	if m.Cfg.NoCompositeInner && !isBaseSide(ctx, right) {
		return nil, false
	}
	// Merge-join guarantees output ordered on the join attribute (both
	// equated columns carry identical values after the join).
	switch {
	case len(required.Sort) == 0:
	case len(required.Sort) == 1 && !required.Sort[0].Desc &&
		(required.Sort[0].Col == lc || required.Sort[0].Col == rc):
		if projCols != nil && !colInList(required.Sort[0].Col, projCols) {
			return nil, false
		}
	default:
		return nil, false
	}
	inPart := [2]Partitioning{}
	switch required.Part.Kind {
	case PartNone:
	case PartHash:
		// A partition-wise merge-join needs compatibly partitioned
		// inputs: each side partitioned on its join column.
		if required.Part.Col != lc && required.Part.Col != rc {
			return nil, false
		}
		inPart[0] = Partitioning{Kind: PartHash, Col: lc, Degree: required.Part.Degree}
		inPart[1] = Partitioning{Kind: PartHash, Col: rc, Degree: required.Part.Degree}
	}
	if inPart[0].Kind == PartNone {
		return m.sortedInputs(lc, rc), true
	}
	alts := []core.InputReq{{Required: []core.PhysProps{
		&PhysProps{Sort: []OrderCol{{Col: lc}}, Part: inPart[0]},
		&PhysProps{Sort: []OrderCol{{Col: rc}}, Part: inPart[1]},
	}}}
	return alts, true
}

// sortedOn returns the serial vector "sorted on c", shared from the
// vectors New builds for every catalog column.
func (m *Model) sortedOn(c rel.ColID) *PhysProps {
	if int(c) < len(m.sorted) && m.sorted[c] != nil {
		return m.sorted[c]
	}
	return SortedOn(c)
}

// sortedInputs is serial merge join's input requirement, the left input
// sorted on lc and the right on rc, built in one allocation.
func (m *Model) sortedInputs(lc, rc rel.ColID) []core.InputReq {
	r := &struct {
		alts [1]core.InputReq
		req  [2]core.PhysProps
	}{req: [2]core.PhysProps{m.sortedOn(lc), m.sortedOn(rc)}}
	r.alts[0].Required = r.req[:]
	return r.alts[:]
}

// isBaseSide reports whether the class reads a single base relation —
// the Starburst-style "no composite inner" restriction used in ablation.
func isBaseSide(ctx *core.RuleContext, g core.GroupID) bool {
	t := props(ctx, g).Tables
	return t != 0 && t&(t-1) == 0
}

func colInList(c rel.ColID, cols []rel.ColID) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// mergeJoinCost charges one pass over both sorted inputs plus output
// construction.
func (m *Model) mergeJoinCost(ctx *core.RuleContext, out, left, right core.GroupID, required core.PhysProps) Cost {
	return m.scaled(required, m.mergeJoinCostProps(props(ctx, left), props(ctx, right), props(ctx, out)))
}

// hashJoinCost charges building on the left input, probing with the
// right, and output construction. With the default work space the build
// fits and hybrid hash join proceeds without partition files, as in the
// paper's experimental setup; under memory pressure the overflow
// fraction of both inputs is partitioned to disk.
func (m *Model) hashJoinCost(ctx *core.RuleContext, out, left, right core.GroupID, required core.PhysProps) Cost {
	return m.scaled(required, m.hashJoinCostProps(props(ctx, left), props(ctx, right), props(ctx, out)))
}

// scaled divides CPU work across partitions when the result is produced
// partition-parallel, and rounds the terms.
func (m *Model) scaled(required core.PhysProps, t terms) Cost {
	rp := reqProps(required)
	if rp.Part.Kind == PartHash && rp.Part.Degree > 1 {
		t.cpu /= float64(rp.Part.Degree)
	}
	return t.cost()
}

// boundSides resolves the sides of a bound join that Applicability has
// admitted: all that Delivered and Build need.
func boundSides(ctx *core.RuleContext, join *core.Binding) (lc, rc rel.ColID) {
	lc, rc, _ = joinSides(ctx, join.Children[0].Group, join.Children[1].Group, join.Expr.Op.(*rel.Join))
	return lc, rc
}

// mergeJoinDelivered claims the required vector when one was given, else
// ordering on the left join column.
func (m *Model) mergeJoinDelivered(required *PhysProps, lc rel.ColID) core.PhysProps {
	if len(required.Sort) > 0 {
		return required
	}
	if required.Part.Kind == PartNone {
		return m.sortedOn(lc)
	}
	return &PhysProps{Sort: []OrderCol{{Col: lc}}, Part: required.Part}
}

// mergeJoinRule implements JOIN by merge-join.
func mergeJoinRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "join->merge-join",
		Pattern: core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			return m.mergeJoinApplicability(ctx, b.Children[0].Group, b.Children[1].Group,
				b.Expr.Op.(*rel.Join), reqProps(required), nil)
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			return m.mergeJoinCost(ctx, b.Group, b.Children[0].Group, b.Children[1].Group, required)
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			m := modelOf(ctx)
			lc, _ := boundSides(ctx, b)
			return m.mergeJoinDelivered(reqProps(required), lc)
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			lc, rc := boundSides(ctx, b)
			return &MergeJoin{LeftCol: lc, RightCol: rc}
		},
		Promise: 2,
	}
}

// hashJoinApplicability: hybrid hash join delivers no sort order, so it
// qualifies only when none is required.
func (m *Model) hashJoinApplicability(ctx *core.RuleContext, left, right core.GroupID, j *rel.Join, required *PhysProps) ([]core.InputReq, bool) {
	lc, rc, ok := joinSides(ctx, left, right, j)
	if !ok || len(required.Sort) > 0 {
		return nil, false
	}
	if m.Cfg.NoCompositeInner && !isBaseSide(ctx, right) {
		return nil, false
	}
	if required.Part.Kind == PartNone {
		return serialInputs, true
	}
	if required.Part.Col != lc && required.Part.Col != rc {
		return nil, false
	}
	alts := []core.InputReq{{Required: []core.PhysProps{
		&PhysProps{Part: Partitioning{Kind: PartHash, Col: lc, Degree: required.Part.Degree}},
		&PhysProps{Part: Partitioning{Kind: PartHash, Col: rc, Degree: required.Part.Degree}},
	}}}
	return alts, true
}

// serialInputs is serial hash join's input requirement, shared read-only
// by every binding: two inputs with no requirement.
var serialInputs = []core.InputReq{{Required: []core.PhysProps{Any, Any}}}

// hashJoinRule implements JOIN by hybrid hash join.
func hashJoinRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "join->hybrid-hash-join",
		Pattern: core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			return m.hashJoinApplicability(ctx, b.Children[0].Group, b.Children[1].Group,
				b.Expr.Op.(*rel.Join), reqProps(required))
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			return m.hashJoinCost(ctx, b.Group, b.Children[0].Group, b.Children[1].Group, required)
		}),
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			lc, rc := boundSides(ctx, b)
			return &HashJoin{LeftCol: lc, RightCol: rc}
		},
		Promise: 3,
	}
}

// nlJoinRule implements JOIN by block nested loops. It is excluded from
// the Figure-4 configuration to match the paper's algorithm set.
func nlJoinRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "join->nl-join",
		Pattern: core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			rp := reqProps(required)
			if len(rp.Sort) > 0 || rp.Part.Kind != PartNone {
				return nil, false
			}
			j := b.Expr.Op.(*rel.Join)
			if _, _, ok := joinSides(ctx, b.Children[0].Group, b.Children[1].Group, j); !ok {
				return nil, false
			}
			if m.Cfg.NoCompositeInner && !isBaseSide(ctx, b.Children[1].Group) {
				return nil, false
			}
			return []core.InputReq{{Required: []core.PhysProps{Any, Any}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			lp := props(ctx, b.Children[0].Group)
			rp := props(ctx, b.Children[1].Group)
			op := props(ctx, b.Group)
			return NewCost(0, lp.Rows*rp.Rows*m.Cfg.Params.CPUPred+
				op.Rows*m.Cfg.Params.CPUTuple)
		}),
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			j := b.Expr.Op.(*rel.Join)
			lc, rc, _ := joinSides(ctx, b.Children[0].Group, b.Children[1].Group, j)
			return &NLJoin{LeftCol: lc, RightCol: rc}
		},
		Promise: 1,
	}
}

// fusedMergeJoinRule maps PROJECT(JOIN(A,B)) to a single merge-join
// procedure that applies the projection for free: the paper's example of
// an implementation rule spanning multiple logical operators.
func fusedMergeJoinRule() *core.ImplRule {
	pattern := core.P(rel.KindProject, core.P(rel.KindJoin, core.Leaf(), core.Leaf()))
	return &core.ImplRule{
		Name:    "project+join->merge-join",
		Pattern: pattern,
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			join := b.Children[0]
			return m.mergeJoinApplicability(ctx, join.Children[0].Group, join.Children[1].Group,
				join.Expr.Op.(*rel.Join), reqProps(required), b.Expr.Op.(*rel.Project).Cols)
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			join := b.Children[0]
			return m.mergeJoinCost(ctx, b.Group, join.Children[0].Group, join.Children[1].Group, required)
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			m := modelOf(ctx)
			lc, _ := boundSides(ctx, b.Children[0])
			return m.mergeJoinDelivered(reqProps(required), lc)
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			lc, rc := boundSides(ctx, b.Children[0])
			return &MergeJoin{LeftCol: lc, RightCol: rc, Proj: b.Expr.Op.(*rel.Project).Cols}
		},
		Promise: 2,
	}
}

// fusedHashJoinRule maps PROJECT(JOIN(A,B)) to a single hybrid hash join
// procedure with a fused projection.
func fusedHashJoinRule() *core.ImplRule {
	pattern := core.P(rel.KindProject, core.P(rel.KindJoin, core.Leaf(), core.Leaf()))
	return &core.ImplRule{
		Name:    "project+join->hybrid-hash-join",
		Pattern: pattern,
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			join := b.Children[0]
			return m.hashJoinApplicability(ctx, join.Children[0].Group, join.Children[1].Group,
				join.Expr.Op.(*rel.Join), reqProps(required))
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			join := b.Children[0]
			return m.hashJoinCost(ctx, b.Group, join.Children[0].Group, join.Children[1].Group, required)
		}),
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			lc, rc := boundSides(ctx, b.Children[0])
			return &HashJoin{LeftCol: lc, RightCol: rc, Proj: b.Expr.Op.(*rel.Project).Cols}
		},
		Promise: 3,
	}
}

// intersectAlternatives builds the acceptable shared sort orders for
// merge-intersect: for each leading column, the schema's remaining
// columns in order — the paper's R sorted (A,B,C) / S sorted (B,A,C)
// example generalized. Both inputs must be sorted the same way; which
// way does not matter, so each order is one alternative combination.
func intersectAlternatives(schema []rel.ColID, required *PhysProps, single bool) []core.InputReq {
	if required.Part.Kind != PartNone {
		return nil
	}
	var alts []core.InputReq
	for lead := range schema {
		if single && lead != len(schema)-1 {
			// The restricted implementor hardcoded one fixed
			// combination, chosen without knowledge of any table's
			// clustered order.
			continue
		}
		order := make([]OrderCol, 0, len(schema))
		order = append(order, OrderCol{Col: schema[lead]})
		for i, c := range schema {
			if i != lead {
				order = append(order, OrderCol{Col: c})
			}
		}
		shared := &PhysProps{Sort: order}
		if !shared.Covers(required) {
			continue
		}
		alts = append(alts, core.InputReq{Required: []core.PhysProps{shared, shared}})
	}
	return alts
}

// mergeIntersectRule implements INTERSECT by a merge-based algorithm
// accepting any shared input order: multiple alternative input property
// combinations, tried by the generated optimizer while other orders are
// ignored.
func mergeIntersectRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "intersect->merge-intersect",
		Pattern: core.P(rel.KindIntersect, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			schema := props(ctx, b.Group).Cols
			alts := intersectAlternatives(schema, reqProps(required), m.Cfg.SingleIntersectOrder)
			return alts, len(alts) > 0
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			lp := props(ctx, b.Children[0].Group)
			rp := props(ctx, b.Children[1].Group)
			op := props(ctx, b.Group)
			rows := lp.Rows + rp.Rows
			cols := float64(len(op.Cols))
			return NewCost(0, rows*m.Cfg.Params.CPUCompare*cols+op.Rows*m.Cfg.Params.CPUTuple)
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			return alt.Required[0]
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &MergeIntersect{Order: alt.Required[0].(*PhysProps).Sort}
		},
		Promise: 2,
	}
}

// hashIntersectRule implements INTERSECT by hashing; no order required
// or delivered.
func hashIntersectRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "intersect->hash-intersect",
		Pattern: core.P(rel.KindIntersect, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			if !reqProps(required).IsAny() {
				return nil, false
			}
			return []core.InputReq{{Required: []core.PhysProps{Any, Any}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			lp := props(ctx, b.Children[0].Group)
			rp := props(ctx, b.Children[1].Group)
			op := props(ctx, b.Group)
			return NewCost(HashSpillIO(m.Cfg.Params, lp.Pages(m.Cfg.Params.PageBytes), rp.Pages(m.Cfg.Params.PageBytes)),
				(lp.Rows+rp.Rows)*m.Cfg.Params.CPUHash+op.Rows*m.Cfg.Params.CPUTuple)
		}),
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &HashIntersect{}
		},
		Promise: 3,
	}
}

// sortGroupByRule implements GROUPBY over input sorted on the grouping
// columns; the output inherits that order.
func sortGroupByRule() *core.ImplRule {
	groupOrder := func(g *rel.GroupBy) []OrderCol {
		order := make([]OrderCol, len(g.GroupCols))
		for i, c := range g.GroupCols {
			order[i] = OrderCol{Col: c}
		}
		return order
	}
	return &core.ImplRule{
		Name:    "groupby->sort-groupby",
		Pattern: core.P(rel.KindGroupBy, core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			g := b.Expr.Op.(*rel.GroupBy)
			rp := reqProps(required)
			if rp.Part.Kind != PartNone || len(g.GroupCols) == 0 {
				return nil, false
			}
			delivered := &PhysProps{Sort: groupOrder(g)}
			if !delivered.Covers(rp) {
				return nil, false
			}
			return []core.InputReq{{Required: []core.PhysProps{delivered}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			in := props(ctx, b.Children[0].Group)
			out := props(ctx, b.Group)
			return NewCost(0, in.Rows*m.Cfg.Params.CPUCompare+out.Rows*m.Cfg.Params.CPUTuple)
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			return &PhysProps{Sort: groupOrder(b.Expr.Op.(*rel.GroupBy))}
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			g := b.Expr.Op.(*rel.GroupBy)
			return &SortGroupBy{GroupCols: g.GroupCols, Aggs: g.Aggs}
		},
		Promise: 2,
	}
}

// hashGroupByRule implements GROUPBY by hashing; no order required or
// delivered.
func hashGroupByRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "groupby->hash-groupby",
		Pattern: core.P(rel.KindGroupBy, core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			if !reqProps(required).IsAny() {
				return nil, false
			}
			return []core.InputReq{{Required: []core.PhysProps{Any}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			in := props(ctx, b.Children[0].Group)
			out := props(ctx, b.Group)
			return NewCost(0, in.Rows*m.Cfg.Params.CPUHash+out.Rows*m.Cfg.Params.CPUTuple)
		}),
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			g := b.Expr.Op.(*rel.GroupBy)
			return &HashGroupBy{GroupCols: g.GroupCols, Aggs: g.Aggs}
		},
		Promise: 3,
	}
}

// mergeUnionRule implements UNION by a merge-based algorithm accepting
// any shared input order, which it preserves — set operations get the
// same order-aware, alternative-rich treatment as joins.
func mergeUnionRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "union->merge-union",
		Pattern: core.P(rel.KindUnion, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			m := modelOf(ctx)
			schema := props(ctx, b.Group).Cols
			alts := intersectAlternatives(schema, reqProps(required), m.Cfg.SingleIntersectOrder)
			return alts, len(alts) > 0
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			lp := props(ctx, b.Children[0].Group)
			rp := props(ctx, b.Children[1].Group)
			op := props(ctx, b.Group)
			rows := lp.Rows + rp.Rows
			cols := float64(len(op.Cols))
			return NewCost(0, rows*m.Cfg.Params.CPUCompare*cols+op.Rows*m.Cfg.Params.CPUTuple)
		}),
		Delivered: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps {
			return alt.Required[0]
		},
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &MergeUnion{Order: alt.Required[0].(*PhysProps).Sort}
		},
		Promise: 2,
	}
}

// hashUnionRule implements UNION by hashing; no order required or
// delivered.
func hashUnionRule() *core.ImplRule {
	return &core.ImplRule{
		Name:    "union->hash-union",
		Pattern: core.P(rel.KindUnion, core.Leaf(), core.Leaf()),
		Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {
			if !reqProps(required).IsAny() {
				return nil, false
			}
			return []core.InputReq{{Required: []core.PhysProps{Any, Any}}}, true
		},
		Cost: core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) Cost {
			m := modelOf(ctx)
			lp := props(ctx, b.Children[0].Group)
			rp := props(ctx, b.Children[1].Group)
			op := props(ctx, b.Group)
			return NewCost(HashSpillIO(m.Cfg.Params, lp.Pages(m.Cfg.Params.PageBytes), rp.Pages(m.Cfg.Params.PageBytes)),
				(lp.Rows+rp.Rows)*m.Cfg.Params.CPUHash+op.Rows*m.Cfg.Params.CPUTuple)
		}),
		Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {
			return &HashUnion{}
		},
		Promise: 3,
	}
}
