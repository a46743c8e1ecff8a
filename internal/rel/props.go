package rel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// ColStat is the optimizer's estimate for one column of an intermediate
// result.
type ColStat struct {
	// Distinct is the estimated number of distinct values.
	Distinct float64
	// Min and Max bound the estimated value domain.
	Min, Max int64
	// Width is the column's width in bytes.
	Width int
}

// Props are the logical properties of a relational intermediate result:
// schema, expected size, and per-column statistics. They are derived
// from the logical expression before any optimization and are therefore
// identical for every member of an equivalence class. Selectivity
// estimation is encapsulated here, in the model's logical property
// functions, as the paper prescribes.
type Props struct {
	// Cat is the catalog the properties were derived against.
	Cat *Catalog
	// Cols is the output schema, in column order.
	Cols []ColID
	// Rows is the estimated output cardinality.
	Rows float64
	// RowBytes is the estimated record width.
	RowBytes int
	// Tables is a bitset (by Table.Index) of the base relations that
	// contribute rows to this result.
	Tables uint64
	// Stats holds the per-column estimates, parallel to Cols: Stats[i]
	// describes Cols[i]. Read one column's through Stat.
	Stats []ColStat
}

var _ core.PropsEqualer = (*Props)(nil)

// Equal reports whether other is a *Props with the same catalog, schema
// and estimates, comparing every float bit for bit.
func (p *Props) Equal(other core.LogicalProps) bool {
	q, ok := other.(*Props)
	if !ok || p.Cat != q.Cat || math.Float64bits(p.Rows) != math.Float64bits(q.Rows) ||
		p.RowBytes != q.RowBytes || p.Tables != q.Tables ||
		!slices.Equal(p.Cols, q.Cols) || len(p.Stats) != len(q.Stats) {
		return false
	}
	for i, s := range p.Stats {
		t := q.Stats[i]
		if math.Float64bits(s.Distinct) != math.Float64bits(t.Distinct) ||
			s.Min != t.Min || s.Max != t.Max || s.Width != t.Width {
			return false
		}
	}
	return true
}

// String summarizes the properties.
func (p *Props) String() string {
	return fmt.Sprintf("rows=%.0f cols=%d width=%dB", p.Rows, len(p.Cols), p.RowBytes)
}

// Stat returns the estimate for column c, and whether the schema
// contains it. Schemas are a few dozen columns at most, so this is a
// scan of Cols. A self-join repeats a column in Cols; its last
// occurrence — the right input's — answers.
func (p *Props) Stat(c ColID) (ColStat, bool) {
	for i := len(p.Cols) - 1; i >= 0; i-- {
		if p.Cols[i] == c {
			return p.Stats[i], true
		}
	}
	return ColStat{}, false
}

// HasCol reports whether the schema contains the column.
func (p *Props) HasCol(c ColID) bool {
	_, ok := p.Stat(c)
	return ok
}

// HasCols reports whether the schema contains every listed column.
func (p *Props) HasCols(cols []ColID) bool {
	for _, c := range cols {
		if !p.HasCol(c) {
			return false
		}
	}
	return true
}

// Pages returns the number of storage pages the result occupies at the
// given page size.
func (p *Props) Pages(pageBytes int) float64 {
	if pageBytes <= 0 || p.RowBytes <= 0 {
		return 0
	}
	rowsPerPage := float64(pageBytes / p.RowBytes)
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	pages := p.Rows / rowsPerPage
	if pages < 1 && p.Rows > 0 {
		pages = 1
	}
	return pages
}

// clampDistinct caps every column's distinct count at the row estimate.
func (p *Props) clampDistinct() {
	for i := range p.Stats {
		s := &p.Stats[i]
		if s.Distinct > p.Rows {
			s.Distinct = p.Rows
			if s.Distinct < 1 {
				s.Distinct = 1
			}
		}
	}
}

// setDistinct sets the distinct count of every occurrence of column c.
func (p *Props) setDistinct(c ColID, d float64) {
	for i, pc := range p.Cols {
		if pc == c {
			p.Stats[i].Distinct = d
		}
	}
}

// DeriveProps computes the logical properties of an expression from its
// operator and the already-derived properties of its inputs. It is the
// model's property function for every logical operator. paramSel is the
// selectivity assumed for parameterized predicates (runtime-bound
// constants); zero means the System R default of 1/3. Dynamic-plan
// generation sweeps this assumption.
func DeriveProps(cat *Catalog, paramSel float64, op core.LogicalOp, inputs []core.LogicalProps) *Props {
	in := func(i int) *Props { return inputs[i].(*Props) }
	switch o := op.(type) {
	case *Get:
		return deriveGet(cat, o)
	case *Select:
		return deriveSelect(o, in(0), paramSel)
	case *Join:
		return deriveJoin(o, in(0), in(1))
	case *Project:
		return deriveProject(o, in(0))
	case *Intersect:
		return deriveIntersect(in(0), in(1))
	case *Union:
		return deriveUnion(in(0), in(1))
	case *GroupBy:
		return deriveGroupBy(o, in(0))
	}
	panic(fmt.Sprintf("rel: unknown logical operator %T", op))
}

func deriveGet(cat *Catalog, g *Get) *Props {
	t := g.Tab
	p := &Props{
		Cat:      cat,
		Cols:     append([]ColID(nil), t.Columns...),
		Rows:     float64(t.Rows),
		RowBytes: t.RowBytes,
		Tables:   1 << uint(t.Index),
		Stats:    make([]ColStat, len(t.Columns)),
	}
	width := t.RowBytes
	if len(t.Columns) > 0 {
		width = t.RowBytes / len(t.Columns)
	}
	for i, c := range t.Columns {
		m := cat.Column(c)
		p.Stats[i] = ColStat{Distinct: float64(m.Distinct), Min: m.Min, Max: m.Max, Width: width}
	}
	return p
}

// Selectivity estimates the fraction of rows satisfying a predicate
// against an input with the given properties, using the System R
// formulas: 1/distinct for equality with a constant, domain fractions
// for ranges, and 1/max(d1,d2) for column equality. A parameterized
// predicate's constant binds at run time, so its estimate is the System
// R default of 1/3 (DeriveProps may assume another).
func Selectivity(pred Pred, in *Props) float64 {
	if pred.IsParam() {
		return 1.0 / 3
	}
	ls, ok := in.Stat(pred.Col)
	if !ok {
		return 0.1
	}
	if pred.IsColCol() {
		rs, ok := in.Stat(pred.OtherCol)
		if !ok {
			return 0.1
		}
		switch pred.Op {
		case CmpEQ:
			return 1 / maxf(ls.Distinct, rs.Distinct, 1)
		case CmpNE:
			return 1 - 1/maxf(ls.Distinct, rs.Distinct, 1)
		default:
			return 1.0 / 3
		}
	}
	switch pred.Op {
	case CmpEQ:
		return 1 / maxf(ls.Distinct, 1, 1)
	case CmpNE:
		return 1 - 1/maxf(ls.Distinct, 1, 1)
	default:
		return rangeFraction(pred.Op, pred.Val, ls.Min, ls.Max)
	}
}

// rangeFraction estimates the selectivity of a range comparison against
// a uniform integer domain [min, max].
func rangeFraction(op CmpOp, val, min, max int64) float64 {
	if max <= min {
		return 1.0 / 3 // unknown domain: System R default
	}
	span := float64(max - min)
	var frac float64
	switch op {
	case CmpLT:
		frac = float64(val-min) / span
	case CmpLE:
		frac = float64(val-min+1) / span
	case CmpGT:
		frac = float64(max-val) / span
	case CmpGE:
		frac = float64(max-val+1) / span
	default:
		frac = 1.0 / 3
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// ScalarSelectivity estimates the fraction of rows a column-constant
// comparison keeps, given the column's statistics. It is the
// selectivity formula behind Selectivity, exported so the choose-plan
// operator can re-estimate at run time once a parameter is bound.
func ScalarSelectivity(op CmpOp, val int64, st ColStat) float64 {
	switch op {
	case CmpEQ:
		return 1 / maxf(st.Distinct, 1, 1)
	case CmpNE:
		return 1 - 1/maxf(st.Distinct, 1, 1)
	default:
		return rangeFraction(op, val, st.Min, st.Max)
	}
}

func maxf(a, b, floor float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if m < floor {
		m = floor
	}
	return m
}

func deriveSelect(s *Select, in *Props, paramSel float64) *Props {
	sel := Selectivity(s.Pred, in)
	if s.Pred.IsParam() && paramSel > 0 {
		sel = paramSel
	}
	p := &Props{
		Cat:      in.Cat,
		Cols:     in.Cols,
		Rows:     in.Rows * sel,
		RowBytes: in.RowBytes,
		Tables:   in.Tables,
		Stats:    append([]ColStat(nil), in.Stats...),
	}
	// Equality with a known constant pins the column to one value.
	if !s.Pred.IsColCol() && !s.Pred.IsParam() && s.Pred.Op == CmpEQ {
		for i, c := range p.Cols {
			if c == s.Pred.Col {
				st := &p.Stats[i]
				st.Distinct = 1
				st.Min, st.Max = s.Pred.Val, s.Pred.Val
			}
		}
	}
	p.clampDistinct()
	return p
}

func deriveJoin(j *Join, l, r *Props) *Props {
	ls, lok := l.Stat(j.A)
	rs, rok := r.Stat(j.B)
	if !lok || !rok {
		// The pair may sit the other way around relative to the
		// canonicalized argument order.
		ls, lok = l.Stat(j.B)
		rs, rok = r.Stat(j.A)
	}
	sel := 0.1
	if lok && rok {
		sel = 1 / maxf(ls.Distinct, rs.Distinct, 1)
	}
	n := len(l.Cols) + len(r.Cols)
	p := &Props{
		Cat:      l.Cat,
		Cols:     append(append(make([]ColID, 0, n), l.Cols...), r.Cols...),
		Rows:     l.Rows * r.Rows * sel,
		RowBytes: l.RowBytes + r.RowBytes,
		Tables:   l.Tables | r.Tables,
		Stats:    append(append(make([]ColStat, 0, n), l.Stats...), r.Stats...),
	}
	// The equated columns share the smaller distinct count after the join.
	if lok && rok {
		d := ls.Distinct
		if rs.Distinct < d {
			d = rs.Distinct
		}
		p.setDistinct(j.A, d)
		p.setDistinct(j.B, d)
	}
	p.clampDistinct()
	return p
}

func deriveProject(pr *Project, in *Props) *Props {
	p := &Props{
		Cat:    in.Cat,
		Cols:   append([]ColID(nil), pr.Cols...),
		Rows:   in.Rows,
		Tables: in.Tables,
		Stats:  make([]ColStat, len(pr.Cols)),
	}
	for i, c := range pr.Cols {
		st, _ := in.Stat(c)
		p.Stats[i] = st
		p.RowBytes += st.Width
	}
	if p.RowBytes == 0 {
		p.RowBytes = 8
	}
	p.clampDistinct()
	return p
}

func deriveIntersect(l, r *Props) *Props {
	rows := l.Rows
	if r.Rows < rows {
		rows = r.Rows
	}
	p := &Props{
		Cat:      l.Cat,
		Cols:     l.Cols,
		Rows:     rows / 2, // heuristic: half the smaller input matches
		RowBytes: l.RowBytes,
		Tables:   l.Tables | r.Tables,
		Stats:    append([]ColStat(nil), l.Stats...),
	}
	p.clampDistinct()
	return p
}

func deriveUnion(l, r *Props) *Props {
	overlap := l.Rows
	if r.Rows < overlap {
		overlap = r.Rows
	}
	p := &Props{
		Cat:      l.Cat,
		Cols:     l.Cols,
		Rows:     l.Rows + r.Rows - overlap/2, // overlap estimate matches intersection's
		RowBytes: l.RowBytes,
		Tables:   l.Tables | r.Tables,
		Stats:    append([]ColStat(nil), l.Stats...),
	}
	p.clampDistinct()
	return p
}

func deriveGroupBy(g *GroupBy, in *Props) *Props {
	groups := 1.0
	for _, c := range g.GroupCols {
		if st, ok := in.Stat(c); ok {
			groups *= maxf(st.Distinct, 1, 1)
		}
	}
	if groups > in.Rows {
		groups = in.Rows
	}
	if groups < 1 {
		groups = 1
	}
	p := &Props{
		Cat:    in.Cat,
		Cols:   append([]ColID(nil), g.GroupCols...),
		Rows:   groups,
		Tables: in.Tables,
		Stats:  make([]ColStat, len(g.GroupCols)),
	}
	for i, c := range g.GroupCols {
		st, _ := in.Stat(c)
		p.Stats[i] = st
		p.RowBytes += st.Width
	}
	// Aggregate outputs are appended as 8-byte values; they carry no
	// catalog columns of their own.
	p.RowBytes += 8 * len(g.Aggs)
	if p.RowBytes == 0 {
		p.RowBytes = 8
	}
	p.clampDistinct()
	return p
}
