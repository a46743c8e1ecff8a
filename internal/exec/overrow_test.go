package exec

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// sized sets an operator's batch size and returns it.
func sized[T batchSized](it T, size int) T {
	it.SetBatchSize(size)
	return it
}

// ragged is a test producer whose batches cycle through 1, 3 and
// DefaultBatchSize+1 rows whatever its consumer's batch size; it never
// emits an empty batch. Its header vector is reused from batch to batch.
type ragged struct {
	rows       []Row
	next, turn int
	out        Batch
}

var raggedSizes = [...]int{1, 3, DefaultBatchSize + 1}

func (r *ragged) Open() error { r.next, r.turn = 0, 0; return nil }
func (r *ragged) NextBatch() (*Batch, bool, error) {
	if r.next >= len(r.rows) {
		return nil, false, nil
	}
	end := min(r.next+raggedSizes[r.turn%len(raggedSizes)], len(r.rows))
	r.out.Rows = append(r.out.Rows[:0], r.rows[r.next:end]...)
	r.next, r.turn = end, r.turn+1
	return &r.out, true, nil
}
func (r *ragged) Close() error { return nil }

// sortedRows returns a copy of rows sorted ascending on the positions.
func sortedRows(rows []Row, pos ...int) []Row {
	rows = slices.Clone(rows)
	sortRows(rows, ascKeys(pos))
	return rows
}

func getTree(name string) *core.ExprTree {
	return &core.ExprTree{Op: &rel.Get{Tab: &rel.Table{Name: name}}}
}

func exprTree(op core.LogicalOp, children ...*core.ExprTree) *core.ExprTree {
	return &core.ExprTree{Op: op, Children: children}
}

func ascOn(cols ...rel.ColID) []relopt.OrderCol {
	order := make([]relopt.OrderCol, len(cols))
	for i, c := range cols {
		order[i].Col = c
	}
	return order
}

// TestColumnarOverRowInputs puts each columnar operator (filter,
// projection, hash join with a row-structured build side, probe side or
// both, hash grouping and sorted grouping) over each row-structured
// producer (sort, merge join, nested-loops join, merge and hash union
// and intersection, the reuse of a spool, and the gather of an
// exchange), so every input reaches the operator through the transposing
// adapter (asCols), and compares each result with the reference
// evaluator's at batch sizes 1, 7 and the default. Tables A, B and C
// have columns 1-3, 4-6 and 7-9; every producer's output holds A's.
// The ragged producers put the ragged test producer under every
// columnar operator and under each row-structured consumer; table D has
// A's columns and enough rows for a DefaultBatchSize+1 batch, in each
// range of the set operations too, and joins E, a small table with B's.
func TestColumnarOverRowInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := NewDB()
	tabs := map[string]*Table{}
	for i, name := range []string{"A", "B", "C"} {
		c := rel.ColID(3*i + 1)
		tabs[name] = named(randTable(rng, []rel.ColID{c, c + 1, c + 2}, 300-50*i), name)
		db.Add(tabs[name])
	}
	a, b, c := tabs["A"], tabs["B"], tabs["C"]
	d := named(randTable(rng, a.Schema.Cols, 1700), "D")
	e := named(randTable(rng, b.Schema.Cols, 30), "E")
	db.Add(d)
	db.Add(e)
	ab := joined(a.Schema, b.Schema)
	lo := rel.Pred{Col: 3, Op: rel.CmpGE, Val: -3}
	hi := rel.Pred{Col: 3, Op: rel.CmpLT, Val: 4}
	ranges := func(size int) (Iterator, Iterator) {
		return sized(NewColFilter(sized(NewColScan(a), size), a.Schema, []rel.Pred{lo}), size),
			sized(NewColFilter(sized(NewColScan(a), size), a.Schema, []rel.Pred{hi}), size)
	}
	sortedRanges := func(size int) (Iterator, Iterator) {
		l, r := ranges(size)
		return sized(NewSort(l, a.Schema, ascOn(1, 2, 3)), size), sized(NewSort(r, a.Schema, ascOn(1, 2, 3)), size)
	}
	rangeTrees := []*core.ExprTree{exprTree(&rel.Select{Pred: lo}, getTree("A")), exprTree(&rel.Select{Pred: hi}, getTree("A"))}
	joinAB := exprTree(rel.NewJoin(2, 5), getTree("A"), getTree("B"))
	dRows, eRows := storedRows(d), storedRows(e)
	var dLo, dHi []Row
	for _, r := range dRows {
		if r[2] >= lo.Val {
			dLo = append(dLo, r)
		}
		if r[2] < hi.Val {
			dHi = append(dHi, r)
		}
	}
	if cycle := raggedSizes[0] + raggedSizes[1] + raggedSizes[2]; min(len(dLo), len(dHi)) < cycle {
		t.Fatalf("D's ranges hold %d and %d rows, fewer than a ragged cycle's %d", len(dLo), len(dHi), cycle)
	}
	rag := func(rows []Row) Iterator { return &ragged{rows: rows} }
	dRangeTrees := []*core.ExprTree{exprTree(&rel.Select{Pred: lo}, getTree("D")), exprTree(&rel.Select{Pred: hi}, getTree("D"))}
	joinDE := exprTree(rel.NewJoin(2, 5), getTree("D"), getTree("E"))

	producers := []struct {
		name   string
		build  func(size int) (Iterator, *Schema)
		tree   *core.ExprTree
		sorted rel.ColID // the column the output ascends on; InvalidCol for none
	}{
		{"sort", func(size int) (Iterator, *Schema) {
			return sized(NewSort(sized(NewColScan(a), size), a.Schema, ascOn(2)), size), a.Schema
		}, getTree("A"), 2},
		{"mergejoin", func(size int) (Iterator, *Schema) {
			l := sized(NewSort(sized(NewColScan(a), size), a.Schema, ascOn(2)), size)
			r := sized(NewSort(sized(NewColScan(b), size), b.Schema, ascOn(5)), size)
			return sized(NewMergeJoin(l, r, a.Schema, b.Schema, 1, 1, nil), size), ab
		}, joinAB, 2},
		{"nljoin", func(size int) (Iterator, *Schema) {
			return sized(NewNLJoin(sized(NewColScan(a), size), sized(NewColScan(b), size), a.Schema, b.Schema, 1, 1), size), ab
		}, joinAB, rel.InvalidCol},
		{"mergeunion", func(size int) (Iterator, *Schema) {
			l, r := sortedRanges(size)
			return sized(NewMergeUnion(l, r, []int{0, 1, 2}), size), a.Schema
		}, exprTree(&rel.Union{}, rangeTrees...), 1},
		{"mergeintersect", func(size int) (Iterator, *Schema) {
			l, r := sortedRanges(size)
			return sized(NewMergeIntersect(l, r, []int{0, 1, 2}), size), a.Schema
		}, exprTree(&rel.Intersect{}, rangeTrees...), 1},
		{"hashunion", func(size int) (Iterator, *Schema) {
			l, r := ranges(size)
			return sized(NewHashUnion(l, r), size), a.Schema
		}, exprTree(&rel.Union{}, rangeTrees...), rel.InvalidCol},
		{"hashintersect", func(size int) (Iterator, *Schema) {
			l, r := ranges(size)
			return sized(NewHashIntersect(l, r), size), a.Schema
		}, exprTree(&rel.Intersect{}, rangeTrees...), rel.InvalidCol},
		{"reuse", func(size int) (Iterator, *Schema) {
			st := NewSpoolStore()
			NewMaterialize(st, 1, sized(NewColScan(a), size), a.Schema)
			r, rs, err := NewReuse(st, 1)
			if err != nil {
				t.Fatal(err)
			}
			return sized(r, size), rs
		}, getTree("A"), rel.InvalidCol},
		{"exchange", func(size int) (Iterator, *Schema) {
			st := newExchangeState(nil, 2, 0, size, nil, []Iterator{sized(NewColScan(a), size)})
			return NewGather([]Iterator{st.port(0), st.port(1)}), a.Schema
		}, getTree("A"), rel.InvalidCol},
		{"ragged", func(int) (Iterator, *Schema) {
			return rag(dRows), d.Schema
		}, getTree("D"), rel.InvalidCol},
		{"ragged/sort", func(size int) (Iterator, *Schema) {
			return sized(NewSort(rag(dRows), d.Schema, ascOn(2)), size), d.Schema
		}, getTree("D"), 2},
		{"ragged/mergejoin", func(size int) (Iterator, *Schema) {
			l, r := rag(sortedRows(dRows, 1)), rag(sortedRows(eRows, 1))
			return sized(NewMergeJoin(l, r, d.Schema, e.Schema, 1, 1, nil), size), joined(d.Schema, e.Schema)
		}, joinDE, 2},
		{"ragged/nljoin", func(size int) (Iterator, *Schema) {
			return sized(NewNLJoin(rag(dRows), rag(eRows), d.Schema, e.Schema, 1, 1), size), joined(d.Schema, e.Schema)
		}, joinDE, rel.InvalidCol},
		{"ragged/mergeunion", func(size int) (Iterator, *Schema) {
			l, r := rag(sortedRows(dLo, 0, 1, 2)), rag(sortedRows(dHi, 0, 1, 2))
			return sized(NewMergeUnion(l, r, []int{0, 1, 2}), size), d.Schema
		}, exprTree(&rel.Union{}, dRangeTrees...), 1},
		{"ragged/mergeintersect", func(size int) (Iterator, *Schema) {
			l, r := rag(sortedRows(dLo, 0, 1, 2)), rag(sortedRows(dHi, 0, 1, 2))
			return sized(NewMergeIntersect(l, r, []int{0, 1, 2}), size), d.Schema
		}, exprTree(&rel.Intersect{}, dRangeTrees...), 1},
		{"ragged/hashunion", func(size int) (Iterator, *Schema) {
			return sized(NewHashUnion(rag(dLo), rag(dHi)), size), d.Schema
		}, exprTree(&rel.Union{}, dRangeTrees...), rel.InvalidCol},
		{"ragged/hashintersect", func(size int) (Iterator, *Schema) {
			return sized(NewHashIntersect(rag(dLo), rag(dHi)), size), d.Schema
		}, exprTree(&rel.Intersect{}, dRangeTrees...), rel.InvalidCol},
		{"ragged/gather", func(int) (Iterator, *Schema) {
			return NewGather([]Iterator{rag(dRows[:1100]), rag(dRows[1100:])}), d.Schema
		}, getTree("D"), rel.InvalidCol},
		{"ragged/exchange", func(size int) (Iterator, *Schema) {
			st := newExchangeState(nil, 2, 0, size, nil, []Iterator{rag(dRows)})
			return NewGather([]Iterator{st.port(0), st.port(1)}), d.Schema
		}, getTree("D"), rel.InvalidCol},
	}

	preds := []rel.Pred{{Col: 3, Op: rel.CmpGT, Val: -5}, {Col: 1, Op: rel.CmpLE, OtherCol: 2}}
	aggs := []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: 3}, {Fn: rel.AggMin, Col: 1}, {Fn: rel.AggMax, Col: 3}}
	scanC := func(size int) Iterator { return sized(NewColScan(c), size) }
	operators := []struct {
		name  string
		build func(in Iterator, s *Schema, sorted rel.ColID, size int) (Iterator, *Schema)
		tree  func(in *core.ExprTree, sorted rel.ColID) *core.ExprTree
	}{
		{"filter", func(in Iterator, s *Schema, _ rel.ColID, size int) (Iterator, *Schema) {
			return sized(NewColFilter(in, s, preds), size), s
		}, func(in *core.ExprTree, _ rel.ColID) *core.ExprTree {
			return exprTree(&rel.Select{Pred: preds[1]}, exprTree(&rel.Select{Pred: preds[0]}, in))
		}},
		{"project", func(in Iterator, s *Schema, _ rel.ColID, size int) (Iterator, *Schema) {
			return sized(NewColProject(in, s, []rel.ColID{3, 1}), size), NewSchema([]rel.ColID{3, 1})
		}, func(in *core.ExprTree, _ rel.ColID) *core.ExprTree {
			return exprTree(&rel.Project{Cols: []rel.ColID{3, 1}}, in)
		}},
		{"hashjoin/build", func(in Iterator, s *Schema, _ rel.ColID, size int) (Iterator, *Schema) {
			return sized(NewColHashJoin(in, scanC(size), s, c.Schema, s.Pos(2), 1, nil), size), joined(s, c.Schema)
		}, func(in *core.ExprTree, _ rel.ColID) *core.ExprTree {
			return exprTree(rel.NewJoin(2, 8), in, getTree("C"))
		}},
		{"hashjoin/probe", func(in Iterator, s *Schema, _ rel.ColID, size int) (Iterator, *Schema) {
			return sized(NewColHashJoin(scanC(size), in, c.Schema, s, 1, s.Pos(2), nil), size), joined(c.Schema, s)
		}, func(in *core.ExprTree, _ rel.ColID) *core.ExprTree {
			return exprTree(rel.NewJoin(2, 8), getTree("C"), in)
		}},
		{"hashjoin/both", func(in Iterator, s *Schema, _ rel.ColID, size int) (Iterator, *Schema) {
			sortC := sized(NewSort(scanC(size), c.Schema, ascOn(8)), size)
			return sized(NewColHashJoin(in, sortC, s, c.Schema, s.Pos(2), 1, []int{s.Pos(1), s.Width() + 2}), size), NewSchema([]rel.ColID{1, 9})
		}, func(in *core.ExprTree, _ rel.ColID) *core.ExprTree {
			return exprTree(&rel.Project{Cols: []rel.ColID{1, 9}}, exprTree(rel.NewJoin(2, 8), in, getTree("C")))
		}},
		{"hashgroup", func(in Iterator, s *Schema, _ rel.ColID, size int) (Iterator, *Schema) {
			return sized(NewColHashGroupBy(in, s, []rel.ColID{2}, aggs), size), groupSchema([]rel.ColID{2}, len(aggs))
		}, func(in *core.ExprTree, _ rel.ColID) *core.ExprTree {
			return exprTree(&rel.GroupBy{GroupCols: []rel.ColID{2}, Aggs: aggs}, in)
		}},
		// Sorted grouping groups on the column the producer ascends on,
		// or on column 2 over a sort of an unordered producer.
		{"sortgroup", func(in Iterator, s *Schema, sorted rel.ColID, size int) (Iterator, *Schema) {
			if sorted == rel.InvalidCol {
				in, sorted = sized(NewSort(in, s, ascOn(2)), size), 2
			}
			group := []rel.ColID{sorted}
			return sized(NewColSortGroupBy(in, s, group, aggs), size), groupSchema(group, len(aggs))
		}, func(in *core.ExprTree, sorted rel.ColID) *core.ExprTree {
			if sorted == rel.InvalidCol {
				sorted = 2
			}
			return exprTree(&rel.GroupBy{GroupCols: []rel.ColID{sorted}, Aggs: aggs}, in)
		}},
	}

	for _, p := range producers {
		for _, op := range operators {
			want, wantSchema, err := Reference(db, op.tree(p.tree, p.sorted))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s over %s: the reference result is empty", op.name, p.name)
			}
			for _, size := range []int{1, 7, DefaultBatchSize} {
				in, s := p.build(size)
				if _, ok := in.(ColBatchIterator); ok {
					t.Fatalf("%s produces columnar batches: the adapter is not reached", p.name)
				}
				it, outSchema := op.build(in, s, p.sorted, size)
				got := collectAll(t, it)
				if Fingerprint(Canonical(got, outSchema)) != Fingerprint(Canonical(want, wantSchema)) {
					t.Errorf("%s over %s at batch size %d: %d rows differ from the reference's %d",
						op.name, p.name, size, len(got), len(want))
				}
			}
		}
	}
}
