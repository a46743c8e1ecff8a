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
//
// Props are immutable once derived: plans keep them, and cached plans
// are read concurrently.
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

	// Per-column estimates, read through Stat and StatAt. A result that
	// builds its own schema (scan, projection, grouping) holds them in
	// stats, parallel to Cols. One that passes its inputs' columns through
	// (selection, join, intersection, union) holds none: it reads them
	// from left (and, for a join, right) on demand, applies fix, and caps
	// the distinct count at Rows, which yields bit for bit what copying
	// and adjusting its inputs' estimates at derivation did.
	stats       []ColStat
	left, right *Props
	fix         statFix
	// has is the set of columns in Cols.
	has colSet
}

// statFix is the estimate a pass-through operator imposes on the columns
// it names: a join's equated pair shares the smaller distinct count, and
// a selection's equality with a constant pins its column to one value.
type statFix struct {
	// a and b are the columns fixed; InvalidCol when unused.
	a, b     ColID
	distinct float64
	// pin sets Min and Max to val as well.
	pin bool
	val int64
}

// colSet is a set of column IDs: a bitmap whose first word is inline, so
// the catalogs of up to 63 columns the optimizer usually sees never
// allocate one.
type colSet struct {
	lo uint64
	hi []uint64 // columns 64 and up, 64 to a word; nil while unused
}

func (s *colSet) add(c ColID) {
	if c < 64 {
		s.lo |= 1 << uint(c)
		return
	}
	w := int(c>>6) - 1
	for len(s.hi) <= w {
		s.hi = append(s.hi, 0)
	}
	s.hi[w] |= 1 << uint(c&63)
}

func (s *colSet) contains(c ColID) bool {
	if c < 64 {
		return c >= 0 && s.lo&(1<<uint(c)) != 0
	}
	w := int(c>>6) - 1
	return w < len(s.hi) && s.hi[w]&(1<<uint(c&63)) != 0
}

// union returns a set holding the columns of both; it shares neither
// operand's storage.
func (s *colSet) union(t *colSet) colSet {
	u := colSet{lo: s.lo | t.lo}
	if n := max(len(s.hi), len(t.hi)); n > 0 {
		u.hi = make([]uint64, n)
		copy(u.hi, s.hi)
		for i, w := range t.hi {
			u.hi[i] |= w
		}
	}
	return u
}

func setOf(cols []ColID) colSet {
	var s colSet
	for _, c := range cols {
		s.add(c)
	}
	return s
}

var _ core.PropsEqualer = (*Props)(nil)

// Equal reports whether other is a *Props with the same catalog, schema
// and estimates, comparing every float bit for bit.
func (p *Props) Equal(other core.LogicalProps) bool {
	q, ok := other.(*Props)
	if !ok || p.Cat != q.Cat || math.Float64bits(p.Rows) != math.Float64bits(q.Rows) ||
		p.RowBytes != q.RowBytes || p.Tables != q.Tables || !slices.Equal(p.Cols, q.Cols) {
		return false
	}
	for i := range p.Cols {
		s, t := p.StatAt(i), q.StatAt(i)
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
// contains it. A self-join repeats a column in Cols; its last
// occurrence — the right input's — answers.
func (p *Props) Stat(c ColID) (ColStat, bool) {
	if !p.has.contains(c) {
		return ColStat{}, false
	}
	if p.left == nil {
		i := len(p.Cols) - 1
		for p.Cols[i] != c {
			i--
		}
		return p.stats[i], true
	}
	in := p.left
	if p.right != nil && p.right.has.contains(c) {
		in = p.right
	}
	s, _ := in.Stat(c)
	return p.adjust(c, s), true
}

// StatAt returns the estimate for the column at position i of Cols. The
// occurrences of a column a self-join repeats may differ: each keeps its
// own input's estimate.
func (p *Props) StatAt(i int) ColStat {
	if p.left == nil {
		return p.stats[i]
	}
	c := p.Cols[i]
	in := p.left
	if p.right != nil && i >= len(p.left.Cols) {
		in, i = p.right, i-len(p.left.Cols)
	}
	return p.adjust(c, in.StatAt(i))
}

// adjust applies a pass-through result's own estimates to an input's
// estimate s of column c.
func (p *Props) adjust(c ColID, s ColStat) ColStat {
	if c == p.fix.a || c == p.fix.b {
		s.Distinct = p.fix.distinct
		if p.fix.pin {
			s.Min, s.Max = p.fix.val, p.fix.val
		}
	}
	return clampStat(s, p.Rows)
}

// clampStat caps a distinct count at the row estimate.
func clampStat(s ColStat, rows float64) ColStat {
	if s.Distinct > rows {
		s.Distinct = rows
		if s.Distinct < 1 {
			s.Distinct = 1
		}
	}
	return s
}

// HasCol reports whether the schema contains the column.
func (p *Props) HasCol(c ColID) bool { return p.has.contains(c) }

// HasCols reports whether the schema contains every listed column.
func (p *Props) HasCols(cols []ColID) bool {
	for _, c := range cols {
		if !p.has.contains(c) {
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
		stats:    make([]ColStat, len(t.Columns)),
		has:      setOf(t.Columns),
	}
	width := t.RowBytes
	if len(t.Columns) > 0 {
		width = t.RowBytes / len(t.Columns)
	}
	for i, c := range t.Columns {
		m := cat.Column(c)
		p.stats[i] = ColStat{Distinct: float64(m.Distinct), Min: m.Min, Max: m.Max, Width: width}
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

// passThrough returns the properties of a result whose columns are its
// input l's — followed by r's for a join — with statistics read from
// them on demand.
func passThrough(l, r *Props, rows float64, tables uint64) *Props {
	p := &Props{
		Cat:      l.Cat,
		Cols:     l.Cols,
		Rows:     rows,
		RowBytes: l.RowBytes,
		Tables:   tables,
		left:     l,
		has:      l.has,
	}
	if r != nil {
		n := len(l.Cols) + len(r.Cols)
		p.Cols = append(append(make([]ColID, 0, n), l.Cols...), r.Cols...)
		p.RowBytes += r.RowBytes
		p.right = r
		p.has = l.has.union(&r.has)
	}
	return p
}

func deriveSelect(s *Select, in *Props, paramSel float64) *Props {
	sel := Selectivity(s.Pred, in)
	if s.Pred.IsParam() && paramSel > 0 {
		sel = paramSel
	}
	p := passThrough(in, nil, in.Rows*sel, in.Tables)
	// Equality with a known constant pins the column to one value.
	if !s.Pred.IsColCol() && !s.Pred.IsParam() && s.Pred.Op == CmpEQ {
		p.fix = statFix{a: s.Pred.Col, distinct: 1, pin: true, val: s.Pred.Val}
	}
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
	p := passThrough(l, r, l.Rows*r.Rows*sel, l.Tables|r.Tables)
	// The equated columns share the smaller distinct count after the join.
	if lok && rok {
		d := ls.Distinct
		if rs.Distinct < d {
			d = rs.Distinct
		}
		p.fix = statFix{a: j.A, b: j.B, distinct: d}
	}
	return p
}

func deriveProject(pr *Project, in *Props) *Props {
	p := &Props{
		Cat:    in.Cat,
		Cols:   append([]ColID(nil), pr.Cols...),
		Rows:   in.Rows,
		Tables: in.Tables,
		stats:  make([]ColStat, len(pr.Cols)),
		has:    setOf(pr.Cols),
	}
	for i, c := range pr.Cols {
		st, _ := in.Stat(c)
		p.stats[i] = clampStat(st, p.Rows)
		p.RowBytes += st.Width
	}
	if p.RowBytes == 0 {
		p.RowBytes = 8
	}
	return p
}

func deriveIntersect(l, r *Props) *Props {
	rows := l.Rows
	if r.Rows < rows {
		rows = r.Rows
	}
	// Heuristic: half the smaller input matches.
	return passThrough(l, nil, rows/2, l.Tables|r.Tables)
}

func deriveUnion(l, r *Props) *Props {
	overlap := l.Rows
	if r.Rows < overlap {
		overlap = r.Rows
	}
	// The overlap estimate matches intersection's.
	return passThrough(l, nil, l.Rows+r.Rows-overlap/2, l.Tables|r.Tables)
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
		stats:  make([]ColStat, len(g.GroupCols)),
		has:    setOf(g.GroupCols),
	}
	for i, c := range g.GroupCols {
		st, _ := in.Stat(c)
		p.stats[i] = clampStat(st, p.Rows)
		p.RowBytes += st.Width
	}
	// Aggregate outputs are appended as 8-byte values; they carry no
	// catalog columns of their own.
	p.RowBytes += 8 * len(g.Aggs)
	if p.RowBytes == 0 {
		p.RowBytes = 8
	}
	return p
}
