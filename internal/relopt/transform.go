package relopt

import (
	"repro/internal/core"
	"repro/internal/rel"
)

// joinCommute is join commutativity: A ⋈ B → B ⋈ A. The Join operator
// stores its column pair canonically, so the commuted expression differs
// only in input order and duplicate derivations collapse in the memo.
func joinCommute() *core.TransformRule {
	return &core.TransformRule{
		Name:    "join-commute",
		Pattern: core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			j := b.Expr.Op.(*rel.Join)
			return ctx.Substitutes(
				ctx.Node(j, ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
		},
		Promise: 1,
	}
}

// joinAssoc is left-to-right join associativity (the paper's Figure 3):
// (A ⋈p1 B) ⋈p2 C → A ⋈p1 (B ⋈p2 C), valid when p2 references only B
// and C. Together with commutativity it generates every join order,
// including bushy trees (composite inner inputs). The new inner join is
// expression "C" of Figure 3: not equivalent to anything in the left
// expression, so the engine creates (or reuses) a class for it.
func joinAssoc() *core.TransformRule {
	pattern := core.P(rel.KindJoin,
		core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		core.Leaf(),
	)
	condition := func(ctx *core.RuleContext, b *core.Binding) bool {
		top := b.Expr.Op.(*rel.Join)
		inner := b.Children[0]
		bp := ctx.LogProps(inner.Children[1].Group).(*rel.Props)
		cp := ctx.LogProps(b.Children[1].Group).(*rel.Props)
		// Both columns of the top predicate must be available in the
		// new inner join B ⋈ C.
		return (bp.HasCol(top.A) || cp.HasCol(top.A)) &&
			(bp.HasCol(top.B) || cp.HasCol(top.B))
	}
	apply := func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
		top := b.Expr.Op.(*rel.Join)
		innerOp := b.Children[0].Expr.Op.(*rel.Join)
		a := b.Children[0].Children[0].Group
		bb := b.Children[0].Children[1].Group
		c := b.Children[1].Group
		return ctx.Substitutes(
			ctx.Node(innerOp,
				ctx.ClassRef(a),
				ctx.Node(top, ctx.ClassRef(bb), ctx.ClassRef(c))))
	}
	return &core.TransformRule{
		Name:      "join-assoc",
		Pattern:   pattern,
		Condition: condition,
		Apply:     apply,
		Promise:   1,
	}
}

// selectPushdown pushes a selection below a join into whichever side
// supplies the predicate's columns: σp(A ⋈ B) → σp(A) ⋈ B.
func selectPushdown() *core.TransformRule {
	pattern := core.P(rel.KindSelect,
		core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
	)
	apply := func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
		sel := b.Expr.Op.(*rel.Select)
		join := b.Children[0].Expr.Op.(*rel.Join)
		l := b.Children[0].Children[0].Group
		r := b.Children[0].Children[1].Group
		lp := ctx.LogProps(l).(*rel.Props)
		rp := ctx.LogProps(r).(*rel.Props)
		cols := []rel.ColID{sel.Pred.Col}
		if sel.Pred.IsColCol() {
			cols = append(cols, sel.Pred.OtherCol)
		}
		var out [2]*core.ExprTree
		n := 0
		if lp.HasCols(cols) {
			out[n] = ctx.Node(join,
				ctx.Node(sel, ctx.ClassRef(l)),
				ctx.ClassRef(r))
			n++
		}
		if rp.HasCols(cols) {
			out[n] = ctx.Node(join,
				ctx.ClassRef(l),
				ctx.Node(sel, ctx.ClassRef(r)))
			n++
		}
		return ctx.Substitutes(out[:n]...)
	}
	return &core.TransformRule{
		Name:    "select-pushdown",
		Pattern: pattern,
		Apply:   apply,
		Promise: 2,
	}
}

// selectCommute swaps two stacked selections: σp(σq(A)) → σq(σp(A)).
// It is the canonical example of a pair of mutually inverse rules; the
// memo's duplicate detection keeps it from looping.
func selectCommute() *core.TransformRule {
	pattern := core.P(rel.KindSelect,
		core.P(rel.KindSelect, core.Leaf()),
	)
	apply := func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
		outer := b.Expr.Op.(*rel.Select)
		inner := b.Children[0].Expr.Op.(*rel.Select)
		in := b.Children[0].Children[0].Group
		return ctx.Substitutes(
			ctx.Node(inner, ctx.Node(outer, ctx.ClassRef(in))))
	}
	return &core.TransformRule{
		Name:    "select-commute",
		Pattern: pattern,
		Apply:   apply,
		Promise: 1,
	}
}

// setCommute is commutativity of a binary set operation (INTERSECT or
// UNION): A op B → B op A.
func setCommute(name string, kind core.OpKind) *core.TransformRule {
	return &core.TransformRule{
		Name:    name,
		Pattern: core.P(kind, core.Leaf(), core.Leaf()),
		Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			return ctx.Substitutes(
				ctx.Node(b.Expr.Op, ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
		},
		Promise: 1,
	}
}

// setAssoc is associativity of a set operation: (A op B) op C →
// A op (B op C). Together with commutativity it lets the optimizer
// reorder N-way intersections and unions cost-based — the Section 5
// argument against optimizing set operations with heuristics only.
func setAssoc(name string, kind core.OpKind) *core.TransformRule {
	return &core.TransformRule{
		Name: name,
		Pattern: core.P(kind,
			core.P(kind, core.Leaf(), core.Leaf()),
			core.Leaf()),
		Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			inner := b.Children[0]
			return ctx.Substitutes(
				ctx.Node(inner.Expr.Op,
					ctx.ClassRef(inner.Children[0].Group),
					ctx.Node(b.Expr.Op,
						ctx.ClassRef(inner.Children[1].Group),
						ctx.ClassRef(b.Children[1].Group))))
		},
		Promise: 1,
	}
}
