package exec

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rel"
)

// Reference evaluates a logical expression tree directly, by definition
// (nested loops, no optimization). It is the oracle the test suite
// compares optimized plan executions against.
func Reference(db *DB, t *core.ExprTree) ([]Row, *Schema, error) {
	switch op := t.Op.(type) {
	case *rel.Get:
		tab := db.Table(op.Tab.Name)
		if tab == nil {
			return nil, nil, fmt.Errorf("exec: table %q not loaded", op.Tab.Name)
		}
		rows := make([]Row, tab.Len())
		for i := range rows {
			rows[i] = tab.Row(i)
		}
		return rows, tab.Schema, nil

	case *rel.Select:
		rows, schema, err := Reference(db, t.Children[0])
		if err != nil {
			return nil, nil, err
		}
		p := compilePred(op.Pred, schema)
		var out []Row
		for _, r := range rows {
			if p.eval(r) {
				out = append(out, r)
			}
		}
		return out, schema, nil

	case *rel.Join:
		l, ls, err := Reference(db, t.Children[0])
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := Reference(db, t.Children[1])
		if err != nil {
			return nil, nil, err
		}
		var lp, rp int
		switch {
		case ls.Has(op.A) && rs.Has(op.B):
			lp, rp = ls.Pos(op.A), rs.Pos(op.B)
		case ls.Has(op.B) && rs.Has(op.A):
			lp, rp = ls.Pos(op.B), rs.Pos(op.A)
		default:
			return nil, nil, fmt.Errorf("exec: join c%d=c%d does not span inputs", op.A, op.B)
		}
		var out []Row
		for _, lr := range l {
			for _, rr := range r {
				if lr[lp] == rr[rp] {
					row := make(Row, 0, len(lr)+len(rr))
					row = append(row, lr...)
					row = append(row, rr...)
					out = append(out, row)
				}
			}
		}
		return out, joined(ls, rs), nil

	case *rel.Project:
		rows, schema, err := Reference(db, t.Children[0])
		if err != nil {
			return nil, nil, err
		}
		idx := make([]int, len(op.Cols))
		for i, c := range op.Cols {
			idx[i] = schema.Pos(c)
		}
		out := make([]Row, len(rows))
		for i, r := range rows {
			pr := make(Row, len(idx))
			for j, p := range idx {
				pr[j] = r[p]
			}
			out[i] = pr
		}
		return out, NewSchema(op.Cols), nil

	case *rel.Intersect:
		l, ls, err := Reference(db, t.Children[0])
		if err != nil {
			return nil, nil, err
		}
		r, _, err := Reference(db, t.Children[1])
		if err != nil {
			return nil, nil, err
		}
		set := make(map[string]bool, len(l))
		for _, row := range l {
			set[rowKey(row)] = true
		}
		var out []Row
		for _, row := range r {
			k := rowKey(row)
			if set[k] {
				delete(set, k)
				out = append(out, row)
			}
		}
		return out, ls, nil

	case *rel.Union:
		l, ls, err := Reference(db, t.Children[0])
		if err != nil {
			return nil, nil, err
		}
		r, _, err := Reference(db, t.Children[1])
		if err != nil {
			return nil, nil, err
		}
		seen := make(map[string]bool, len(l)+len(r))
		var out []Row
		for _, rows := range [][]Row{l, r} {
			for _, row := range rows {
				k := rowKey(row)
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, row)
			}
		}
		return out, ls, nil

	case *rel.GroupBy:
		rows, schema, err := Reference(db, t.Children[0])
		if err != nil {
			return nil, nil, err
		}
		groupPos := make([]int, len(op.GroupCols))
		for i, c := range op.GroupCols {
			groupPos[i] = schema.Pos(c)
		}
		type entry struct {
			key    Row
			states []aggState
		}
		table := make(map[string]*entry)
		aggPos := aggPositions(op.Aggs, schema)
		for _, r := range rows {
			key := make(Row, len(groupPos))
			for i, p := range groupPos {
				key[i] = r[p]
			}
			ks := rowKey(key)
			e := table[ks]
			if e == nil {
				e = &entry{key: key, states: newAggStates(op.Aggs, aggPos)}
				table[ks] = e
			}
			for i := range e.states {
				e.states[i].add(r)
			}
		}
		var out []Row
		for _, e := range table {
			row := append(Row(nil), e.key...)
			for i := range e.states {
				row = append(row, e.states[i].value())
			}
			out = append(out, row)
		}
		order := groupOrder(len(groupPos))
		sort.Slice(out, func(i, j int) bool { return cmpKeys(out[i], out[j], order) < 0 })
		return out, groupSchema(op.GroupCols, len(op.Aggs)), nil
	}
	return nil, nil, fmt.Errorf("exec: no reference evaluation for %T", t.Op)
}

// Canonical projects rows to ascending-ColID column order, so results
// from plans with different join orders (and hence different column
// layouts) become comparable. Aggregate columns (ID 0) keep their
// relative order at the end.
func Canonical(rows []Row, schema *Schema) []Row {
	type colPos struct {
		col rel.ColID
		pos int
	}
	order := make([]colPos, 0, len(schema.Cols))
	var aggs []int
	for i, c := range schema.Cols {
		if c == rel.InvalidCol {
			aggs = append(aggs, i)
			continue
		}
		order = append(order, colPos{c, i})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].col < order[j].col })
	out := make([]Row, len(rows))
	for i, r := range rows {
		cr := make(Row, 0, len(order)+len(aggs))
		for _, cp := range order {
			cr = append(cr, r[cp.pos])
		}
		for _, p := range aggs {
			cr = append(cr, r[p])
		}
		out[i] = cr
	}
	return out
}

// Fingerprint reduces a result to an order-insensitive multiset key for
// comparisons between plan executions and the reference evaluator.
func Fingerprint(rows []Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		n += len(k)
	}
	b := make([]byte, 0, n)
	for _, k := range keys {
		b = append(b, k...)
	}
	return string(b)
}

// SortedBy reports whether rows are ordered on the given positions
// ascending (used to verify delivered sort properties at runtime).
func SortedBy(rows []Row, positions []int) bool {
	keys := ascKeys(positions)
	for i := 1; i < len(rows); i++ {
		if cmpKeys(rows[i-1], rows[i], keys) > 0 {
			return false
		}
	}
	return true
}

// rowKey serializes a whole row as a set-membership key.
func rowKey(r Row) string {
	return string(appendRowKey(make([]byte, 0, len(r)*9), r))
}
