package relopt

import (
	"repro/internal/core"
	"repro/internal/rel"
)

// The join rules are RS-B2 of Pellenkoft, Galindo-Legaria and Kersten
// ("The Complexity of Transformation-Based Join Enumeration", VLDB 1997)
// without its exchange rule: commutativity and both associativities,
// each substitute born with the rules switched off that would only
// re-derive a join tree another firing derives. The memo then finds
// each join expression once instead of several times over. A rel.Join
// carries one predicate, so on a tree-shaped join graph exchange
// ((A⋈B)⋈(C⋈D) → (A⋈C)⋈(B⋈D)) always builds a cross product, which the
// rules never do; commutativity and the associativities alone reach
// every cross-product-free tree.
//
// The masks name rules by their index in the model's transformation
// rule list, which New builds in this order.
const (
	ruleJoinCommute = iota
	ruleJoinRightAssoc
	ruleJoinLeftAssoc
	ruleSelectPushdown
	ruleSelectCommute
)

const (
	bitCommute = 1 << ruleJoinCommute
	// bitsAssoc switches off both associativities.
	bitsAssoc = 1<<ruleJoinRightAssoc | 1<<ruleJoinLeftAssoc
)

// joinCommute is join commutativity: A ⋈ B → B ⋈ A. The Join operator
// stores its column pair canonically, so the commuted expression differs
// only in input order. The result is born with commutativity and both
// associativities off: commuting back would re-find A ⋈ B, and RS-B2
// derives the trees an associativity would reach from B ⋈ A along other
// paths (TestJoinRulesSpanReferenceSpace holds the space complete).
func joinCommute() *core.TransformRule {
	return &core.TransformRule{
		Name:    "join-commute",
		Pattern: core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			j := b.Expr.Op.(*rel.Join)
			return ctx.Substitutes(
				ctx.NodeWithout(bitCommute|bitsAssoc, j,
					ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
		},
		Promise: 1,
	}
}

// joinRightAssoc is left-to-right join associativity (the paper's
// Figure 3): (A ⋈p1 B) ⋈p2 C → A ⋈p1 (B ⋈p2 C), valid when p2
// references only B and C. The new inner join is expression "C" of
// Figure 3: not equivalent to anything in the left expression, so the
// engine creates (or reuses) a class for it. The new top is born with
// both associativities off; the new inner join with nothing off.
func joinRightAssoc() *core.TransformRule {
	pattern := core.P(rel.KindJoin,
		core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
		core.Leaf(),
	)
	condition := func(ctx *core.RuleContext, b *core.Binding) bool {
		top := b.Expr.Op.(*rel.Join)
		inner := b.Children[0]
		return joinWithin(ctx, top, inner.Children[1].Group, b.Children[1].Group)
	}
	apply := func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
		top := b.Expr.Op.(*rel.Join)
		innerOp := b.Children[0].Expr.Op.(*rel.Join)
		a := b.Children[0].Children[0].Group
		bb := b.Children[0].Children[1].Group
		c := b.Children[1].Group
		return ctx.Substitutes(
			ctx.NodeWithout(bitsAssoc, innerOp,
				ctx.ClassRef(a),
				ctx.Node(top, ctx.ClassRef(bb), ctx.ClassRef(c))))
	}
	return &core.TransformRule{
		Name:      "join-right-assoc",
		Pattern:   pattern,
		Condition: condition,
		Apply:     apply,
		Promise:   1,
	}
}

// joinLeftAssoc is right-to-left join associativity: A ⋈p1 (B ⋈p2 C) →
// (A ⋈p1 B) ⋈p2 C, valid when p1 references only A and B. Under the
// birth masks right associativity alone no longer reaches every tree
// with a composite inner input; this rule is its mirror. The new top is
// born with both associativities off.
func joinLeftAssoc() *core.TransformRule {
	pattern := core.P(rel.KindJoin,
		core.Leaf(),
		core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
	)
	condition := func(ctx *core.RuleContext, b *core.Binding) bool {
		top := b.Expr.Op.(*rel.Join)
		return joinWithin(ctx, top, b.Children[0].Group, b.Children[1].Children[0].Group)
	}
	apply := func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
		top := b.Expr.Op.(*rel.Join)
		innerOp := b.Children[1].Expr.Op.(*rel.Join)
		a := b.Children[0].Group
		bb := b.Children[1].Children[0].Group
		c := b.Children[1].Children[1].Group
		return ctx.Substitutes(
			ctx.NodeWithout(bitsAssoc, innerOp,
				ctx.Node(top, ctx.ClassRef(a), ctx.ClassRef(bb)),
				ctx.ClassRef(c)))
	}
	return &core.TransformRule{
		Name:      "join-left-assoc",
		Pattern:   pattern,
		Condition: condition,
		Apply:     apply,
		Promise:   1,
	}
}

// joinWithin reports whether both columns of j's predicate are available
// in the join of classes x and y: whether j may be moved onto x ⋈ y.
func joinWithin(ctx *core.RuleContext, j *rel.Join, x, y core.GroupID) bool {
	xp := ctx.LogProps(x).(*rel.Props)
	yp := ctx.LogProps(y).(*rel.Props)
	return (xp.HasCol(j.A) || yp.HasCol(j.A)) && (xp.HasCol(j.B) || yp.HasCol(j.B))
}

// selectPushdown pushes a selection below a join into whichever side
// supplies the predicate's columns: σp(A ⋈ B) → σp(A) ⋈ B. The join
// substitute is born with left associativity off. Pushing through
// A ⋈ (B ⋈ C) and then re-associating derives nothing that
// re-associating first and pushing after does not; without the bit,
// inputs whose selections sit above their joins fire more rules than
// under plain commutativity and associativity.
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
		const off = 1 << ruleJoinLeftAssoc
		if lp.HasCols(cols) {
			out[n] = ctx.NodeWithout(off, join,
				ctx.Node(sel, ctx.ClassRef(l)),
				ctx.ClassRef(r))
			n++
		}
		if rp.HasCols(cols) {
			out[n] = ctx.NodeWithout(off, join,
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
