package sqlish

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// Statement is a lowered query: the logical expression tree for the
// optimizer plus the physical property vector the user requested
// (ORDER BY).
type Statement struct {
	// Tree is the logical algebra expression.
	Tree *core.ExprTree
	// Required is the requested physical property vector; relopt.Any
	// when the query imposes none. It is never nil, so it can be
	// passed to the optimizer directly.
	Required *relopt.PhysProps
}

// Parse lexes, parses, and lowers one statement against the catalog.
func Parse(cat *rel.Catalog, sql string) (*Statement, error) {
	var buf [lexTokens]token
	toks, err := lex(sql, buf[:])
	if err != nil {
		return nil, err
	}
	q, err := parseQuery(toks)
	if err != nil {
		return nil, err
	}
	left, lcols, lorder, err := lowerSelect(cat, q.left)
	if err != nil {
		return nil, err
	}
	if q.right == nil {
		if lorder == nil {
			lorder = relopt.Any
		}
		return &Statement{Tree: left, Required: lorder}, nil
	}
	right, rcols, rorder, err := lowerSelect(cat, q.right)
	if err != nil {
		return nil, err
	}
	if len(lcols) != len(rcols) {
		return nil, fmt.Errorf("sqlish: %s sides have %d and %d columns", q.setOp, len(lcols), len(rcols))
	}
	for i := range lcols {
		if lcols[i] != rcols[i] {
			return nil, fmt.Errorf("sqlish: %s sides must produce the same columns", q.setOp)
		}
	}
	required := lorder
	if rorder != nil {
		required = rorder
	}
	if required == nil {
		required = relopt.Any
	}
	var setOp core.LogicalOp = &rel.Intersect{}
	if q.setOp == "UNION" {
		setOp = &rel.Union{}
	}
	return &Statement{
		Tree:     core.Node(setOp, left, right),
		Required: required,
	}, nil
}

// lowerer carries resolution state for one SELECT block.
type lowerer struct {
	cat    *rel.Catalog
	tables []*rel.Table
}

// lowerSelect lowers one block and reports its output columns and
// requested order.
func lowerSelect(cat *rel.Catalog, s *selectStmt) (*core.ExprTree, []rel.ColID, *relopt.PhysProps, error) {
	lo := &lowerer{cat: cat}
	for _, name := range s.tables {
		t := cat.Table(name)
		if t == nil {
			return nil, nil, nil, fmt.Errorf("sqlish: unknown table %q", name)
		}
		lo.tables = append(lo.tables, t)
	}

	// Classify conditions into per-table selections and join edges.
	type edge struct {
		a, b rel.ColID // a in owner(a), b in owner(b)
	}
	selections := make(map[string][]rel.Pred)
	var edges []edge
	var residual []rel.Pred
	for _, c := range s.where {
		lc, err := lo.resolve(c.leftTable, c.leftCol)
		if err != nil {
			return nil, nil, nil, err
		}
		op := cmpOp(c.op)
		if c.rightCol == "" {
			owner := cat.Column(lc).Table
			selections[owner] = append(selections[owner],
				rel.Pred{Col: lc, Op: op, Val: c.value, Param: c.param})
			continue
		}
		rc, err := lo.resolve(c.rightTable, c.rightCol)
		if err != nil {
			return nil, nil, nil, err
		}
		lOwner, rOwner := cat.Column(lc).Table, cat.Column(rc).Table
		switch {
		case lOwner == rOwner:
			selections[lOwner] = append(selections[lOwner],
				rel.Pred{Col: lc, Op: op, OtherCol: rc})
		case op == rel.CmpEQ:
			edges = append(edges, edge{a: lc, b: rc})
		default:
			residual = append(residual, rel.Pred{Col: lc, Op: op, OtherCol: rc})
		}
	}

	// Per-table scan with stacked selections.
	sub := make(map[string]*core.ExprTree, len(lo.tables))
	for _, t := range lo.tables {
		tree := core.Node(&rel.Get{Tab: t})
		for _, p := range selections[t.Name] {
			tree = core.Node(&rel.Select{Pred: p}, tree)
		}
		sub[t.Name] = tree
	}

	// Connect the tables along join edges, FROM order first.
	if len(lo.tables) == 0 {
		return nil, nil, nil, fmt.Errorf("sqlish: no tables")
	}
	joined := map[string]bool{lo.tables[0].Name: true}
	tree := sub[lo.tables[0].Name]
	used := make([]bool, len(edges))
	for len(joined) < len(lo.tables) {
		progress := false
		for i, e := range edges {
			if used[i] {
				continue
			}
			aT, bT := cat.Column(e.a).Table, cat.Column(e.b).Table
			var inner string
			switch {
			case joined[aT] && joined[bT]:
				// Both sides already connected: a residual filter.
				used[i] = true
				residual = append(residual, rel.Pred{Col: e.a, Op: rel.CmpEQ, OtherCol: e.b})
				progress = true
				continue
			case joined[aT]:
				inner = bT
			case joined[bT]:
				inner = aT
			default:
				continue
			}
			used[i] = true
			tree = core.Node(rel.NewJoin(e.a, e.b), tree, sub[inner])
			joined[inner] = true
			progress = true
		}
		if !progress {
			return nil, nil, nil, fmt.Errorf("sqlish: missing join predicate (cartesian products are not supported)")
		}
	}
	for i, e := range edges {
		if !used[i] {
			residual = append(residual, rel.Pred{Col: e.a, Op: rel.CmpEQ, OtherCol: e.b})
		}
	}
	for _, p := range residual {
		tree = core.Node(&rel.Select{Pred: p}, tree)
	}

	// Aggregation and projection.
	outCols, tree, err := lo.project(s, tree)
	if err != nil {
		return nil, nil, nil, err
	}

	// ORDER BY becomes the required physical property vector.
	var required *relopt.PhysProps
	if len(s.orderBy) > 0 {
		required = &relopt.PhysProps{}
		for _, item := range s.orderBy {
			oc, err := lo.resolve(item.table, item.col)
			if err != nil {
				return nil, nil, nil, err
			}
			if len(outCols) > 0 && !containsCol(outCols, oc) {
				return nil, nil, nil, fmt.Errorf("sqlish: ORDER BY column %s not in output",
					lo.cat.Column(oc).Qualified())
			}
			required.Sort = append(required.Sort, relopt.OrderCol{Col: oc, Desc: item.desc})
		}
	}
	return tree, outCols, required, nil
}

// project applies GROUP BY and the select list.
func (lo *lowerer) project(s *selectStmt, tree *core.ExprTree) ([]rel.ColID, *core.ExprTree, error) {
	var aggs []rel.Agg
	var plainCols []rel.ColID
	star := false
	for _, item := range s.items {
		switch {
		case item.star:
			star = true
		case item.agg != "":
			a := rel.Agg{Fn: aggFn(item.agg)}
			if item.col != "" {
				c, err := lo.resolve(item.table, item.col)
				if err != nil {
					return nil, nil, err
				}
				a.Col = c
			}
			aggs = append(aggs, a)
		default:
			c, err := lo.resolve(item.table, item.col)
			if err != nil {
				return nil, nil, err
			}
			plainCols = append(plainCols, c)
		}
	}

	if len(s.groupBy) > 0 || len(aggs) > 0 {
		var groupCols []rel.ColID
		for _, g := range s.groupBy {
			c, err := lo.resolve(g[0], g[1])
			if err != nil {
				return nil, nil, err
			}
			groupCols = append(groupCols, c)
		}
		for _, c := range plainCols {
			if !containsCol(groupCols, c) {
				return nil, nil, fmt.Errorf("sqlish: column %s must appear in GROUP BY",
					lo.cat.Column(c).Qualified())
			}
		}
		if star {
			return nil, nil, fmt.Errorf("sqlish: SELECT * cannot be combined with GROUP BY")
		}
		gb := &rel.GroupBy{GroupCols: groupCols, Aggs: aggs}
		return groupCols, core.Node(gb, tree), nil
	}

	if star || len(plainCols) == 0 {
		if s.distinct {
			return nil, nil, fmt.Errorf("sqlish: SELECT DISTINCT requires an explicit column list")
		}
		return nil, tree, nil // all columns
	}
	if s.distinct {
		// DISTINCT is grouping on the output columns with no
		// aggregates; the optimizer chooses sort- or hash-based
		// duplicate elimination.
		gb := &rel.GroupBy{GroupCols: plainCols}
		return plainCols, core.Node(gb, tree), nil
	}
	return plainCols, core.Node(&rel.Project{Cols: plainCols}, tree), nil
}

// resolve maps a (possibly unqualified) column reference to a ColID,
// searching only the FROM tables.
func (lo *lowerer) resolve(table, col string) (rel.ColID, error) {
	if table != "" {
		id := lo.cat.ColumnID(table, col)
		if id == rel.InvalidCol {
			return 0, fmt.Errorf("sqlish: unknown column %s.%s", table, col)
		}
		inFrom := false
		for _, t := range lo.tables {
			if t.Name == table {
				inFrom = true
			}
		}
		if !inFrom {
			return 0, fmt.Errorf("sqlish: table %q not in FROM", table)
		}
		return id, nil
	}
	found := rel.InvalidCol
	for _, t := range lo.tables {
		if id := lo.cat.ColumnID(t.Name, col); id != rel.InvalidCol {
			if found != rel.InvalidCol {
				return 0, fmt.Errorf("sqlish: ambiguous column %q", col)
			}
			found = id
		}
	}
	if found == rel.InvalidCol {
		return 0, fmt.Errorf("sqlish: unknown column %q", col)
	}
	return found, nil
}

func containsCol(cols []rel.ColID, c rel.ColID) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

func cmpOp(s string) rel.CmpOp {
	switch s {
	case "=":
		return rel.CmpEQ
	case "<>":
		return rel.CmpNE
	case "<":
		return rel.CmpLT
	case "<=":
		return rel.CmpLE
	case ">":
		return rel.CmpGT
	case ">=":
		return rel.CmpGE
	}
	panic("sqlish: bad comparison " + s)
}

func aggFn(s string) rel.AggFn {
	switch s {
	case "COUNT":
		return rel.AggCount
	case "SUM":
		return rel.AggSum
	case "MIN":
		return rel.AggMin
	case "MAX":
		return rel.AggMax
	}
	panic("sqlish: bad aggregate " + s)
}
