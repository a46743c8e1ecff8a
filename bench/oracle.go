package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// The oracle evaluates a logical expression tree by definition over the
// generated table contents, independently of the optimizer and of
// internal/exec: selections are loops, joins probe a Go map built on one
// input, grouping sorts and folds runs. exec.Reference is the repo's
// own oracle but joins by nested loops, which cannot run at 200000
// rows; a unit test checks this one against it on small tables.

// relation is an evaluated (sub)result: rows under a column list.
// Aggregate outputs carry rel.InvalidCol, as in exec.Schema.
type relation struct {
	cols []rel.ColID
	rows [][]int64
}

func (r *relation) pos(c rel.ColID) int {
	for i, x := range r.cols {
		if x == c {
			return i
		}
	}
	return -1
}

// evalTree evaluates t over data (table name -> rows aligned with the
// table's catalog column order). params binds $n predicates (1-based).
func evalTree(data map[string][][]int64, t *core.ExprTree, params []int64) (*relation, error) {
	switch op := t.Op.(type) {
	case *rel.Get:
		rows, ok := data[op.Tab.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: no data for table %q", op.Tab.Name)
		}
		return &relation{cols: op.Tab.Columns, rows: rows}, nil

	case *rel.Select:
		in, err := evalTree(data, t.Children[0], params)
		if err != nil {
			return nil, err
		}
		p := op.Pred
		lp := in.pos(p.Col)
		if lp < 0 {
			return nil, fmt.Errorf("oracle: predicate column c%d not in input", p.Col)
		}
		rp := -1
		val := p.Val
		switch {
		case p.IsColCol():
			if rp = in.pos(p.OtherCol); rp < 0 {
				return nil, fmt.Errorf("oracle: predicate column c%d not in input", p.OtherCol)
			}
		case p.IsParam():
			if p.Param > len(params) {
				return nil, fmt.Errorf("oracle: parameter $%d not bound", p.Param)
			}
			val = params[p.Param-1]
		}
		out := &relation{cols: in.cols}
		for _, r := range in.rows {
			rhs := val
			if rp >= 0 {
				rhs = r[rp]
			}
			if p.Op.Eval(r[lp], rhs) {
				out.rows = append(out.rows, r)
			}
		}
		return out, nil

	case *rel.Join:
		l, err := evalTree(data, t.Children[0], params)
		if err != nil {
			return nil, err
		}
		r, err := evalTree(data, t.Children[1], params)
		if err != nil {
			return nil, err
		}
		lp, rp := l.pos(op.A), r.pos(op.B)
		if lp < 0 || rp < 0 {
			lp, rp = l.pos(op.B), r.pos(op.A)
		}
		if lp < 0 || rp < 0 {
			return nil, fmt.Errorf("oracle: join c%d=c%d does not span its inputs", op.A, op.B)
		}
		index := make(map[int64][]int32, len(r.rows))
		for i, row := range r.rows {
			index[row[rp]] = append(index[row[rp]], int32(i))
		}
		out := &relation{cols: append(append([]rel.ColID(nil), l.cols...), r.cols...)}
		w := len(out.cols)
		for _, lr := range l.rows {
			for _, i := range index[lr[lp]] {
				row := make([]int64, 0, w)
				row = append(append(row, lr...), r.rows[i]...)
				out.rows = append(out.rows, row)
			}
		}
		return out, nil

	case *rel.Project:
		in, err := evalTree(data, t.Children[0], params)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(op.Cols))
		for i, c := range op.Cols {
			if idx[i] = in.pos(c); idx[i] < 0 {
				return nil, fmt.Errorf("oracle: projected column c%d not in input", c)
			}
		}
		out := &relation{cols: op.Cols, rows: make([][]int64, len(in.rows))}
		for i, r := range in.rows {
			pr := make([]int64, len(idx))
			for j, p := range idx {
				pr[j] = r[p]
			}
			out.rows[i] = pr
		}
		return out, nil

	case *rel.GroupBy:
		in, err := evalTree(data, t.Children[0], params)
		if err != nil {
			return nil, err
		}
		return groupBySorting(in, op)
	}
	return nil, fmt.Errorf("oracle: no evaluation for %T", t.Op)
}

// groupBySorting sorts a copy of the input on the grouping columns and
// folds each run of equal keys into one output row: the key values
// followed by one value per aggregate.
func groupBySorting(in *relation, op *rel.GroupBy) (*relation, error) {
	gpos := make([]int, len(op.GroupCols))
	for i, c := range op.GroupCols {
		if gpos[i] = in.pos(c); gpos[i] < 0 {
			return nil, fmt.Errorf("oracle: grouping column c%d not in input", c)
		}
	}
	apos := make([]int, len(op.Aggs))
	for i, a := range op.Aggs {
		apos[i] = -1
		if a.Fn != rel.AggCount {
			if apos[i] = in.pos(a.Col); apos[i] < 0 {
				return nil, fmt.Errorf("oracle: aggregate column c%d not in input", a.Col)
			}
		}
	}
	rows := append([][]int64(nil), in.rows...)
	sameKey := func(a, b []int64) bool {
		for _, p := range gpos {
			if a[p] != b[p] {
				return false
			}
		}
		return true
	}
	sort.Slice(rows, func(i, j int) bool {
		for _, p := range gpos {
			if rows[i][p] != rows[j][p] {
				return rows[i][p] < rows[j][p]
			}
		}
		return false
	})
	out := &relation{cols: append([]rel.ColID(nil), op.GroupCols...)}
	for range op.Aggs {
		out.cols = append(out.cols, rel.InvalidCol)
	}
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && sameKey(rows[start], rows[end]) {
			end++
		}
		row := make([]int64, 0, len(out.cols))
		for _, p := range gpos {
			row = append(row, rows[start][p])
		}
		for i, a := range op.Aggs {
			var v int64
			switch a.Fn {
			case rel.AggCount:
				v = int64(end - start)
			case rel.AggSum:
				for _, r := range rows[start:end] {
					v += r[apos[i]]
				}
			case rel.AggMin:
				v = rows[start][apos[i]]
				for _, r := range rows[start+1 : end] {
					if r[apos[i]] < v {
						v = r[apos[i]]
					}
				}
			case rel.AggMax:
				v = rows[start][apos[i]]
				for _, r := range rows[start+1 : end] {
					if r[apos[i]] > v {
						v = r[apos[i]]
					}
				}
			}
			row = append(row, v)
		}
		out.rows = append(out.rows, row)
		start = end
	}
	return out, nil
}

// canonicalOrder returns the positions of a result's columns in a
// plan-independent order: catalog columns by qualified name, then
// aggregate outputs ("agg") in their given order. Plans with different
// join orders lay the same columns out differently; comparing through
// this permutation makes their rows comparable.
func canonicalOrder(names []string) []int {
	var named, aggs []int
	for i, n := range names {
		if n == "agg" {
			aggs = append(aggs, i)
		} else {
			named = append(named, i)
		}
	}
	sort.SliceStable(named, func(a, b int) bool { return names[named[a]] < names[named[b]] })
	return append(named, aggs...)
}

// columnNames names a relation's columns as vdb.Result.Columns does.
func columnNames(cat *rel.Catalog, cols []rel.ColID) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		if c == rel.InvalidCol {
			out[i] = "agg"
		} else {
			out[i] = cat.Column(c).Qualified()
		}
	}
	return out
}

// multiset is an order-insensitive fingerprint of a row multiset: the
// row count and two commutative accumulators over per-row hashes. It
// costs one pass and no allocation, so every timed operation's result
// can be checked without the check dominating the run.
type multiset struct {
	n        int
	sum, xor uint64
}

func (m multiset) String() string { return fmt.Sprintf("%d:%016x:%016x", m.n, m.sum, m.xor) }

// hashRow mixes a row's values, read through perm, into 64 bits.
func hashRow(row []int64, perm []int) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range perm {
		h ^= uint64(row[p])
		h *= 1099511628211
		h ^= h >> 29
	}
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// fingerprintRows fingerprints rows whose columns are read in the
// order perm. R is []int64 or a named type over it (exec.Row).
func fingerprintRows[R ~[]int64](rows []R, perm []int) multiset {
	m := multiset{n: len(rows)}
	for _, r := range rows {
		h := hashRow(r, perm)
		m.sum += h
		m.xor ^= h*2 + 1
	}
	return m
}

// expectation is what the oracle says a statement returns.
type expectation struct {
	names []string // canonical column names
	want  multiset
	order []relopt.OrderCol // requested ORDER BY, checked on every result
}

// expect evaluates a lowered statement and records its expected result.
func expect(cat *rel.Catalog, data map[string][][]int64, tree *core.ExprTree, required *relopt.PhysProps, params []int64) (*expectation, error) {
	out, err := evalTree(data, tree, params)
	if err != nil {
		return nil, err
	}
	names := columnNames(cat, out.cols)
	perm := canonicalOrder(names)
	e := &expectation{want: fingerprintRows(out.rows, perm)}
	for _, p := range perm {
		e.names = append(e.names, names[p])
	}
	if required != nil {
		e.order = required.Sort
	}
	return e, nil
}

// check compares a result (rows under the given column names) with the
// expectation: same columns, same row multiset, and the requested order.
func check[R ~[]int64](cat *rel.Catalog, e *expectation, names []string, rows []R) error {
	if len(names) != len(e.names) {
		return fmt.Errorf("result has %d columns, want %d", len(names), len(e.names))
	}
	perm := canonicalOrder(names)
	for i, p := range perm {
		if names[p] != e.names[i] {
			return fmt.Errorf("result column %q, want %q", names[p], e.names[i])
		}
	}
	if got := fingerprintRows(rows, perm); got != e.want {
		return fmt.Errorf("result multiset %s, want %s", got, e.want)
	}
	if len(e.order) == 0 {
		return nil
	}
	pos := make([]int, len(e.order))
	for i, oc := range e.order {
		pos[i] = -1
		want := cat.Column(oc.Col).Qualified()
		for j, n := range names {
			if n == want {
				pos[i] = j
			}
		}
		if pos[i] < 0 {
			return fmt.Errorf("ORDER BY column %s not in result", want)
		}
	}
	for i := 1; i < len(rows); i++ {
		for k, p := range pos {
			a, b := rows[i-1][p], rows[i][p]
			if e.order[k].Desc {
				a, b = b, a
			}
			if a < b {
				break
			}
			if a > b {
				return fmt.Errorf("result not ordered at row %d", i)
			}
		}
	}
	return nil
}
