package exodus

import (
	"fmt"
	"math"

	"repro/internal/rel"
	"repro/internal/relopt"
)

// analyzeVersions performs EXODUS's immediate algorithm selection and
// cost analysis for one expression, producing one MESH node per
// applicable algorithm — "to retain equivalent plans using merge-join
// and hybrid hash join, the logical expression had to be kept twice,
// resulting in a large number of nodes in MESH". Sort costs are folded
// into merge-join where inputs are not incidentally sorted, and each
// version records the incidental sort order of its output. The cost
// formulas match internal/relopt exactly, so the two engines price
// identical plans identically.
func (o *Optimizer) analyzeVersions(e *exprNode, inputs []*Node) []*Node {
	p := o.cfg.Params
	props := e.cls.find().props
	version := func() *Node {
		if o.stats.Nodes >= o.cfg.MaxNodes {
			o.err = ErrBudget
			return nil
		}
		n := &Node{ID: o.nodeSeq, Expr: e, Inputs: inputs}
		o.nodeSeq++
		o.stats.Nodes++
		return n
	}

	switch op := e.op.(type) {
	case *rel.Get:
		n := version()
		if n == nil {
			return nil
		}
		n.Alg = "filescan"
		n.Cost = relopt.NewCost(props.Pages(p.PageBytes), props.Rows*p.CPUTuple)
		return []*Node{n}

	case *rel.Select:
		in := inputs[0]
		n := version()
		if n == nil {
			return nil
		}
		n.Alg = "filter"
		n.Cost = in.Cost.Add(relopt.NewCost(0, in.props().Rows*p.CPUPred))
		n.SortedOn, n.SortedOn2 = in.SortedOn, in.SortedOn2
		return []*Node{n}

	case *rel.Project:
		in := inputs[0]
		n := version()
		if n == nil {
			return nil
		}
		n.Alg = "project"
		n.Cost = in.Cost.Add(relopt.NewCost(0, in.props().Rows*p.CPUTuple))
		for _, c := range op.Cols {
			if c == in.SortedOn {
				n.SortedOn = in.SortedOn
			}
			if c == in.SortedOn2 {
				n.SortedOn2 = in.SortedOn2
			}
		}
		return []*Node{n}

	case *rel.Join:
		return o.analyzeJoin(e, inputs, op, version)

	case *rel.Intersect:
		return o.analyzeIntersect(e, inputs, version)

	case *rel.GroupBy:
		return o.analyzeGroupBy(e, inputs, op, version)
	}
	panic(fmt.Sprintf("exodus: unknown logical operator %T", e.op))
}

// sortCost prices a single-level merge sort of a result with the given
// properties, identical to the Volcano model's sort enforcer.
func (o *Optimizer) sortCost(props *rel.Props) relopt.Cost {
	p := o.cfg.Params
	rows := props.Rows
	return relopt.NewCost(2*props.Pages(p.PageBytes)*p.SpillIO, rows*log2(rows)*p.CPUCompare)
}

func log2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}

// analyzeJoin produces a hybrid-hash-join version and a merge-join
// version. The cost of sorting unsorted inputs is included in
// merge-join's cost function — the property-blind treatment the Volcano
// paper criticizes.
func (o *Optimizer) analyzeJoin(e *exprNode, inputs []*Node, j *rel.Join, version func() *Node) []*Node {
	p := o.cfg.Params
	l, r := inputs[0], inputs[1]
	lp, rp := l.props(), r.props()
	out := e.cls.find().props

	var lc, rc rel.ColID
	switch {
	case lp.HasCol(j.A) && rp.HasCol(j.B):
		lc, rc = j.A, j.B
	case lp.HasCol(j.B) && rp.HasCol(j.A):
		lc, rc = j.B, j.A
	default:
		panic("exodus: join predicate does not span the inputs")
	}

	inCost := l.Cost.Add(r.Cost)

	hash := version()
	if hash == nil {
		return nil
	}
	hash.Alg = "hybrid-hash-join"
	hash.Cost = inCost.Add(relopt.NewCost(
		relopt.HashSpillIO(p, lp.Pages(p.PageBytes), rp.Pages(p.PageBytes)),
		(lp.Rows+rp.Rows)*p.CPUHash+out.Rows*p.CPUTuple))

	merge := version()
	if merge == nil {
		return nil
	}
	merge.Alg = "merge-join"
	mc := inCost
	if !l.sortedOnCol(lc) {
		mc = mc.Add(o.sortCost(lp))
	}
	if !r.sortedOnCol(rc) {
		mc = mc.Add(o.sortCost(rp))
	}
	merge.Cost = mc.Add(relopt.NewCost(0, (lp.Rows+rp.Rows)*p.CPUCompare+out.Rows*p.CPUTuple))
	merge.SortedOn, merge.SortedOn2 = lc, rc

	return []*Node{hash, merge}
}

// analyzeIntersect produces hash- and merge-based intersection versions.
func (o *Optimizer) analyzeIntersect(e *exprNode, inputs []*Node, version func() *Node) []*Node {
	p := o.cfg.Params
	l, r := inputs[0], inputs[1]
	lp, rp := l.props(), r.props()
	out := e.cls.find().props
	inCost := l.Cost.Add(r.Cost)

	hash := version()
	if hash == nil {
		return nil
	}
	hash.Alg = "hash-intersect"
	hash.Cost = inCost.Add(relopt.NewCost(
		relopt.HashSpillIO(p, lp.Pages(p.PageBytes), rp.Pages(p.PageBytes)),
		(lp.Rows+rp.Rows)*p.CPUHash+out.Rows*p.CPUTuple))

	// Merge intersection needs both inputs fully sorted; EXODUS always
	// charges the sorts because single-column incidental order says
	// nothing about a full-row order.
	merge := version()
	if merge == nil {
		return nil
	}
	merge.Alg = "merge-intersect"
	mc := inCost.Add(o.sortCost(lp)).Add(o.sortCost(rp))
	merge.Cost = mc.Add(relopt.NewCost(0, (lp.Rows+rp.Rows)*p.CPUCompare*float64(len(out.Cols))+out.Rows*p.CPUTuple))

	return []*Node{hash, merge}
}

// analyzeGroupBy produces hash- and sort-grouping versions.
func (o *Optimizer) analyzeGroupBy(e *exprNode, inputs []*Node, g *rel.GroupBy, version func() *Node) []*Node {
	p := o.cfg.Params
	in := inputs[0]
	ip := in.props()
	out := e.cls.find().props

	hash := version()
	if hash == nil {
		return nil
	}
	hash.Alg = "hash-groupby"
	hash.Cost = in.Cost.Add(relopt.NewCost(0, ip.Rows*p.CPUHash+out.Rows*p.CPUTuple))

	srt := version()
	if srt == nil {
		return nil
	}
	srt.Alg = "sort-groupby"
	sc := in.Cost
	if len(g.GroupCols) != 1 || !in.sortedOnCol(g.GroupCols[0]) {
		sc = sc.Add(o.sortCost(ip))
	}
	srt.Cost = sc.Add(relopt.NewCost(0, ip.Rows*p.CPUCompare+out.Rows*p.CPUTuple))
	if len(g.GroupCols) == 1 {
		srt.SortedOn = g.GroupCols[0]
	}

	return []*Node{hash, srt}
}
