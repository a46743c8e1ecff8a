package rel_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
)

// eager is the copy-based derivation the properties replaced: every
// result holds a statistic per occurrence of each column, copied from its
// inputs and adjusted in place. It is the reference the on-demand
// statistics must reproduce bit for bit.
type eager struct {
	cols  []rel.ColID
	rows  float64
	stats []rel.ColStat
}

// stat answers for a column's last occurrence.
func (e *eager) stat(c rel.ColID) (rel.ColStat, bool) {
	for i := len(e.cols) - 1; i >= 0; i-- {
		if e.cols[i] == c {
			return e.stats[i], true
		}
	}
	return rel.ColStat{}, false
}

func (e *eager) clamp() {
	for i := range e.stats {
		if s := &e.stats[i]; s.Distinct > e.rows {
			s.Distinct = max(e.rows, 1)
		}
	}
}

func (e *eager) setDistinct(c rel.ColID, d float64) {
	for i, pc := range e.cols {
		if pc == c {
			e.stats[i].Distinct = d
		}
	}
}

// eagerSelectivity is rel.Selectivity over the reference layout.
func eagerSelectivity(p rel.Pred, in *eager) float64 {
	if p.IsParam() {
		return 1.0 / 3
	}
	ls, ok := in.stat(p.Col)
	if !ok {
		return 0.1
	}
	if p.IsColCol() {
		rs, ok := in.stat(p.OtherCol)
		if !ok {
			return 0.1
		}
		switch p.Op {
		case rel.CmpEQ:
			return 1 / max(ls.Distinct, rs.Distinct, 1)
		case rel.CmpNE:
			return 1 - 1/max(ls.Distinct, rs.Distinct, 1)
		}
		return 1.0 / 3
	}
	return rel.ScalarSelectivity(p.Op, p.Val, ls)
}

func eagerDerive(cat *rel.Catalog, paramSel float64, t *core.ExprTree) *eager {
	in := make([]*eager, len(t.Children))
	for i, c := range t.Children {
		in[i] = eagerDerive(cat, paramSel, c)
	}
	switch o := t.Op.(type) {
	case *rel.Get:
		e := &eager{cols: slices.Clone(o.Tab.Columns), rows: float64(o.Tab.Rows)}
		width := o.Tab.RowBytes / len(o.Tab.Columns)
		for _, c := range o.Tab.Columns {
			m := cat.Column(c)
			e.stats = append(e.stats, rel.ColStat{Distinct: float64(m.Distinct), Min: m.Min, Max: m.Max, Width: width})
		}
		return e
	case *rel.Select:
		sel := eagerSelectivity(o.Pred, in[0])
		if o.Pred.IsParam() && paramSel > 0 {
			sel = paramSel
		}
		e := &eager{cols: in[0].cols, rows: in[0].rows * sel, stats: slices.Clone(in[0].stats)}
		if !o.Pred.IsColCol() && !o.Pred.IsParam() && o.Pred.Op == rel.CmpEQ {
			for i, c := range e.cols {
				if c == o.Pred.Col {
					e.stats[i].Distinct, e.stats[i].Min, e.stats[i].Max = 1, o.Pred.Val, o.Pred.Val
				}
			}
		}
		e.clamp()
		return e
	case *rel.Join:
		l, r := in[0], in[1]
		ls, lok := l.stat(o.A)
		rs, rok := r.stat(o.B)
		if !lok || !rok {
			ls, lok = l.stat(o.B)
			rs, rok = r.stat(o.A)
		}
		sel := 0.1
		if lok && rok {
			sel = 1 / max(ls.Distinct, rs.Distinct, 1)
		}
		e := &eager{
			cols:  slices.Concat(l.cols, r.cols),
			rows:  l.rows * r.rows * sel,
			stats: slices.Concat(l.stats, r.stats),
		}
		if lok && rok {
			d := min(ls.Distinct, rs.Distinct)
			e.setDistinct(o.A, d)
			e.setDistinct(o.B, d)
		}
		e.clamp()
		return e
	case *rel.Project:
		e := &eager{cols: slices.Clone(o.Cols), rows: in[0].rows}
		for _, c := range o.Cols {
			st, _ := in[0].stat(c)
			e.stats = append(e.stats, st)
		}
		e.clamp()
		return e
	case *rel.GroupBy:
		groups := 1.0
		for _, c := range o.GroupCols {
			if st, ok := in[0].stat(c); ok {
				groups *= max(st.Distinct, 1)
			}
		}
		e := &eager{cols: slices.Clone(o.GroupCols), rows: max(min(groups, in[0].rows), 1)}
		for _, c := range o.GroupCols {
			st, _ := in[0].stat(c)
			e.stats = append(e.stats, st)
		}
		e.clamp()
		return e
	case *rel.Intersect:
		e := &eager{cols: in[0].cols, rows: min(in[0].rows, in[1].rows) / 2, stats: slices.Clone(in[0].stats)}
		e.clamp()
		return e
	case *rel.Union:
		e := &eager{cols: in[0].cols, rows: in[0].rows + in[1].rows - min(in[0].rows, in[1].rows)/2,
			stats: slices.Clone(in[0].stats)}
		e.clamp()
		return e
	}
	panic(fmt.Sprintf("unknown operator %T", t.Op))
}

// treeGen draws random logical trees over a catalog's tables.
type treeGen struct {
	cat    *rel.Catalog
	tables []*rel.Table
	rng    *rand.Rand
}

// schema is the column list of a generated tree, as rel derives it.
func schema(cat *rel.Catalog, t *core.ExprTree) []rel.ColID {
	return derive(cat, t).Cols
}

func (g *treeGen) pick(cols []rel.ColID) rel.ColID { return cols[g.rng.Intn(len(cols))] }

func (g *treeGen) tree(depth int) *core.ExprTree {
	get := func() *core.ExprTree {
		return core.Node(&rel.Get{Tab: g.tables[g.rng.Intn(len(g.tables))]})
	}
	if depth == 0 {
		return get()
	}
	switch g.rng.Intn(8) {
	case 0, 1, 2: // joins dominate, self-joins included: the tables repeat
		l, r := g.tree(depth-1), g.tree(depth-1)
		a, b := g.pick(schema(g.cat, l)), g.pick(schema(g.cat, r))
		if g.rng.Intn(6) == 0 {
			b = g.pick(schema(g.cat, l)) // a pair from one side only
		}
		return core.Node(rel.NewJoin(a, b), l, r)
	case 3, 4:
		in := g.tree(depth - 1)
		cols := schema(g.cat, in)
		p := rel.Pred{Col: g.pick(cols), Op: rel.CmpOp(g.rng.Intn(6)), Val: int64(g.rng.Intn(60))}
		switch g.rng.Intn(4) {
		case 0:
			p.OtherCol = g.pick(cols)
		case 1:
			p.Param = 1
		case 2:
			p.Op = rel.CmpEQ
		}
		return core.Node(&rel.Select{Pred: p}, in)
	case 5:
		in := g.tree(depth - 1)
		cols := schema(g.cat, in)
		keep := []rel.ColID{g.pick(cols), g.pick(cols)}
		if g.rng.Intn(2) == 0 {
			return core.Node(&rel.Project{Cols: keep}, in)
		}
		return core.Node(&rel.GroupBy{GroupCols: keep[:1], Aggs: []rel.Agg{{Fn: rel.AggCount}}}, in)
	case 6:
		return core.Node(&rel.Intersect{}, g.tree(depth-1), g.tree(depth-1))
	default:
		return core.Node(&rel.Union{}, g.tree(depth-1), g.tree(depth-1))
	}
}

// genCatalog builds three small tables. With pad, a wide table is
// registered first so that the query tables' column IDs exceed 64.
func genCatalog(pad bool) (*rel.Catalog, []*rel.Table) {
	cat := rel.NewCatalog()
	if pad {
		wide := cat.AddTable("wide", 10, 700)
		for i := 0; i < 70; i++ {
			cat.AddColumn(wide, fmt.Sprintf("w%d", i), 10, 0, 9)
		}
	}
	var tabs []*rel.Table
	for i, rows := range []int64{1000, 50, 400} {
		t := cat.AddTable(fmt.Sprintf("t%d", i), rows, 96)
		cat.AddColumn(t, "id", rows, 1, rows)
		cat.AddColumn(t, "a", max(rows/10, 2), 0, 50)
		cat.AddColumn(t, "b", 20, 0, 19)
		tabs = append(tabs, t)
	}
	return cat, tabs
}

func sameStat(s, t rel.ColStat) bool {
	return math.Float64bits(s.Distinct) == math.Float64bits(t.Distinct) &&
		s.Min == t.Min && s.Max == t.Max && s.Width == t.Width
}

// TestStatsMatchEagerDerivation: over generated trees of every operator,
// self-joins included, every node's Stat of every catalog column and
// every per-occurrence StatAt equal the eager copy-based derivation bit
// for bit, HasCol agrees with the schema, and a tree re-derived compares
// Equal to itself.
func TestStatsMatchEagerDerivation(t *testing.T) {
	for _, pad := range []bool{false, true} {
		cat, tabs := genCatalog(pad)
		all := make([]rel.ColID, 0, 100)
		for _, name := range cat.Tables() {
			all = append(all, cat.Table(name).Columns...)
		}
		g := &treeGen{cat: cat, tables: tabs, rng: rand.New(rand.NewSource(1993))}
		for n := 0; n < 400; n++ {
			tree := g.tree(1 + n%4)
			for _, paramSel := range []float64{0, 0.05} {
				var check func(*core.ExprTree) *rel.Props
				check = func(t0 *core.ExprTree) *rel.Props {
					inputs := make([]core.LogicalProps, len(t0.Children))
					for i, c := range t0.Children {
						inputs[i] = check(c)
					}
					p := rel.DeriveProps(cat, paramSel, t0.Op, inputs)
					want := eagerDerive(cat, paramSel, t0)
					where := fmt.Sprintf("pad=%v tree %d (%s) paramSel %v", pad, n, t0.Op, paramSel)
					if math.Float64bits(p.Rows) != math.Float64bits(want.rows) || !slices.Equal(p.Cols, want.cols) {
						t.Fatalf("%s: rows %v cols %v, eager %v %v", where, p.Rows, p.Cols, want.rows, want.cols)
					}
					for i := range p.Cols {
						if got := p.StatAt(i); !sameStat(got, want.stats[i]) {
							t.Fatalf("%s: StatAt(%d) = %+v, eager %+v", where, i, got, want.stats[i])
						}
					}
					for _, c := range all {
						got, ok := p.Stat(c)
						ws, wok := want.stat(c)
						if ok != wok || !sameStat(got, ws) || p.HasCol(c) != wok {
							t.Fatalf("%s: Stat(%d) = %+v, %v; eager %+v, %v", where, c, got, ok, ws, wok)
						}
					}
					if again := rel.DeriveProps(cat, paramSel, t0.Op, inputs); !p.Equal(again) {
						t.Fatalf("%s: re-derived properties differ", where)
					}
					return p
				}
				check(tree)
			}
		}
	}
}

// TestEqualSeesInputEstimates: two joins with the same schema and row
// estimate whose inputs pin a column to different constants differ only
// in the estimates they read from those inputs, and Equal — what
// Optimizer.Rederive decides staleness by — tells them apart.
func TestEqualSeesInputEstimates(t *testing.T) {
	cat := demoCatalog(t)
	dept, deptID := cat.ColumnID("emp", "dept"), cat.ColumnID("dept", "id")
	join := func(v int64) *rel.Props {
		return derive(cat, core.Node(rel.NewJoin(dept, deptID),
			core.Node(&rel.Select{Pred: rel.Pred{Col: dept, Op: rel.CmpEQ, Val: v}},
				core.Node(&rel.Get{Tab: cat.Table("emp")})),
			core.Node(&rel.Get{Tab: cat.Table("dept")})))
	}
	p7, p8 := join(7), join(8)
	if p7.Rows != p8.Rows || !slices.Equal(p7.Cols, p8.Cols) {
		t.Fatalf("the two joins should share rows and schema: %v %v", p7, p8)
	}
	if p7.Equal(p8) {
		t.Fatal("Equal ignores a pinned input column's estimate")
	}
	if !p7.Equal(join(7)) {
		t.Fatal("Equal distinguishes two derivations of one tree")
	}
}
