package exec

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
)

// randTable builds a table with the given column IDs, rows drawn from a
// small signed domain so predicates hit every comparison outcome.
func randTable(rng *rand.Rand, cols []rel.ColID, n int) *Table {
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, len(cols))
		for j := range r {
			r[j] = int64(rng.Intn(21) - 10)
		}
		rows[i] = r
	}
	return NewTable("t", NewSchema(cols), rows)
}

// named is a copy of a table under another name, for the reference
// evaluator, which finds tables by name.
func named(t *Table, name string) *Table { return NewTable(name, t.Schema, storedRows(t)) }

// storedRows returns a table's stored rows (Table.Row), in scan order.
func storedRows(t *Table) []Row {
	rows := make([]Row, t.Len())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

var cmpOps = []rel.CmpOp{rel.CmpEQ, rel.CmpNE, rel.CmpLT, rel.CmpLE, rel.CmpGT, rel.CmpGE}

// randPreds draws 1–3 random conjuncts over the table's columns,
// including column-column comparisons.
func randPreds(rng *rand.Rand, cols []rel.ColID) []rel.Pred {
	preds := make([]rel.Pred, 1+rng.Intn(3))
	for i := range preds {
		p := rel.Pred{Col: cols[rng.Intn(len(cols))], Op: cmpOps[rng.Intn(len(cmpOps))]}
		if len(cols) > 1 && rng.Intn(3) == 0 {
			p.OtherCol = cols[rng.Intn(len(cols))]
			for p.OtherCol == p.Col {
				p.OtherCol = cols[rng.Intn(len(cols))]
			}
		} else {
			p.Val = int64(rng.Intn(21) - 10)
		}
		preds[i] = p
	}
	return preds
}

// rowFilter is the row-at-a-time oracle of the columnar filter: the
// stored rows that satisfy every conjunct, in scan order.
func rowFilter(tab *Table, preds []rel.Pred) []Row {
	var out []Row
rows:
	for _, r := range storedRows(tab) {
		for _, p := range preds {
			if !compilePred(p, tab.Schema).eval(r) {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// refOver evaluates a logical operator over one stored table by
// definition (Reference).
func refOver(t *testing.T, tab *Table, op core.LogicalOp) []Row {
	t.Helper()
	db := NewDB()
	db.Add(tab)
	rows, _, err := Reference(db, exprTree(op, getTree(tab.Name)))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func collectAll(t *testing.T, it Iterator) []Row {
	t.Helper()
	rows, err := Collect(it)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return rows
}

// TestColFilterMatchesRowFilterRandom is the fuzz-style cross-check of
// the columnar filter over a scan against a row-at-a-time filter over
// the stored rows (rowFilter): random tables, random conjuncts (all six
// comparison operators, constant and column-column), random batch
// sizes. Filters preserve input order, so
// the comparison is exact row-for-row, not just multiset. Runs under
// -race via the standard test suite.
func TestColFilterMatchesRowFilterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		ncols := 1 + rng.Intn(4)
		cols := make([]rel.ColID, ncols)
		for i := range cols {
			cols[i] = rel.ColID(i + 1)
		}
		tab := randTable(rng, cols, rng.Intn(3000))
		preds := randPreds(rng, cols)
		size := []int{1, 7, 64, DefaultBatchSize}[rng.Intn(4)]

		want := rowFilter(tab, preds)

		scan := NewColScan(tab)
		scan.SetBatchSize(size)
		cf := NewColFilter(scan, tab.Schema, preds)
		cf.SetBatchSize(size)
		got := collectAll(t, cf)

		if len(got) != len(want) {
			t.Fatalf("trial %d (size %d, preds %v): %d rows, want %d", trial, size, preds, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d: row %d differs: got %v want %v (preds %v)", trial, i, got[i], want[i], preds)
				}
			}
		}
	}
}

// TestColFilterOverRowInput checks the transposing adapter path: a
// columnar filter over a row-producing input (a foreign row iterator)
// must agree with the row-at-a-time filter.
func TestColFilterOverRowInput(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	cols := []rel.ColID{1, 2}
	tab := randTable(rng, cols, 500)
	preds := []rel.Pred{{Col: 1, Op: rel.CmpGE, Val: 0}, {Col: 2, Op: rel.CmpLT, OtherCol: 1}}

	want := rowFilter(tab, preds)
	got := collectAll(t, NewColFilter(iterOf(storedRows(tab)...), tab.Schema, preds))
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestColHashJoinMatchesReference cross-checks the columnar hash join
// against the reference evaluator on random tables, with and without a
// fused projection, at awkward batch sizes. The build side is a columnar
// scan or a filter fused on one (indexed in place: nothing is copied),
// or a projection (copied into scratch vectors); a filter that rejects
// every row makes it empty.
func TestColHashJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 60; trial++ {
		lcols := []rel.ColID{1, 2}
		rcols := []rel.ColID{3, 4, 5}
		db := NewDB()
		lt := named(randTable(rng, lcols, rng.Intn(400)), "L")
		rt := named(randTable(rng, rcols, rng.Intn(400)), "R")
		db.Add(lt)
		db.Add(rt)
		size := []int{1, 7, 64}[rng.Intn(3)]
		var proj []int
		if rng.Intn(2) == 0 {
			proj = []int{0, 3, 4}
		}
		preds := []rel.Pred{{Col: 2, Op: rel.CmpGE, Val: int64(rng.Intn(23) - 11)}}
		if trial%10 == 0 {
			preds[0].Val = 11 // above the domain: an empty build side
		}
		build := trial % 3

		ltree := getTree("L")
		if build == 1 {
			ltree = exprTree(&rel.Select{Pred: preds[0]}, ltree)
		}
		tree, out := exprTree(rel.NewJoin(1, 4), ltree, getTree("R")), joined(lt.Schema, rt.Schema)
		if proj != nil {
			out = NewSchema([]rel.ColID{1, 4, 5})
			tree = exprTree(&rel.Project{Cols: out.Cols}, tree)
		}
		want, wantSchema, err := Reference(db, tree)
		if err != nil {
			t.Fatal(err)
		}

		var cl Iterator = NewColScan(lt)
		switch build {
		case 1:
			cl = NewColFilter(cl, lt.Schema, preds)
		case 2:
			cl = NewColProject(cl, lt.Schema, lcols)
		}
		cj := NewColHashJoin(cl, NewColScan(rt), lt.Schema, rt.Schema, 0, 1, proj)
		if trial%10 != 0 {
			cj.BuildHint = lt.Len() / (1 + rng.Intn(3)) // draws on the scratch pools
		}
		cj.SetBatchSize(size)
		got := collectAll(t, cj)

		if Fingerprint(Canonical(got, out)) != Fingerprint(Canonical(want, wantSchema)) {
			t.Fatalf("trial %d (size %d, proj %v, build %d): columnar join multiset differs (%d vs %d rows)",
				trial, size, proj, build, len(got), len(want))
		}
	}
}

// TestColHashJoinInPlaceBuildKeepsTableVectors: an in-place build side
// borrows the table's column vectors, and Close must not hand them to
// the scratch pool — not even when the build side turned out empty —
// or the next copying build of that size class would overwrite the
// table.
func TestColHashJoinInPlaceBuildKeepsTableVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	cols := []rel.ColID{1, 2}
	const n = 256 // a whole size class, so the pool would serve it again
	lt, rt, other := randTable(rng, cols, n), randTable(rng, []rel.ColID{3, 4}, n), randTable(rng, cols, n)
	for _, preds := range [][]rel.Pred{
		{{Col: 2, Op: rel.CmpGT, Val: 10}},  // rejects every row
		{{Col: 2, Op: rel.CmpGE, Val: -10}}, // keeps every row
	} {
		inPlace := NewColHashJoin(NewColFilter(NewColScan(lt), lt.Schema, preds), NewColScan(rt), lt.Schema, rt.Schema, 0, 0, nil)
		collectAll(t, inPlace)
		copying := NewColHashJoin(NewColProject(NewColScan(other), other.Schema, cols), NewColScan(rt), other.Schema, rt.Schema, 0, 0, nil)
		copying.BuildHint = n
		collectAll(t, copying)
		for i := range lt.Len() {
			for j, v := range lt.Row(i) {
				if lt.cols[j][i] != v {
					t.Fatalf("preds %v: stored column %d of the build table was overwritten at row %d", preds, j, i)
				}
			}
		}
	}
}

// TestColGroupByMatchesRowGroupBy cross-checks columnar hash and sorted
// grouping against the reference evaluator's row-at-a-time grouping
// (aggState): single and multi grouping columns, every aggregate
// function.
func TestColGroupByMatchesRowGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	aggs := []rel.Agg{
		{Fn: rel.AggCount},
		{Fn: rel.AggSum, Col: 2},
		{Fn: rel.AggMin, Col: 2},
		{Fn: rel.AggMax, Col: 1},
	}
	for trial := 0; trial < 20; trial++ {
		cols := []rel.ColID{1, 2, 3}
		tab := randTable(rng, cols, rng.Intn(2000))
		groupCols := [][]rel.ColID{{1}, {1, 3}}[rng.Intn(2)]
		size := []int{1, 7, DefaultBatchSize}[rng.Intn(3)]

		want := refOver(t, tab, &rel.GroupBy{GroupCols: groupCols, Aggs: aggs})

		cg := NewColHashGroupBy(NewColScan(tab), tab.Schema, groupCols, aggs)
		cg.SetBatchSize(size)
		got := collectAll(t, cg)
		if Fingerprint(got) != Fingerprint(want) {
			t.Fatalf("trial %d: columnar hash group-by differs (%d vs %d groups)", trial, len(got), len(want))
		}

		// Sorted grouping needs sorted input: run it over a sort.
		sortOrder := ascOn(groupCols...)
		csg := NewColSortGroupBy(NewSort(NewColScan(tab), tab.Schema, sortOrder), tab.Schema, groupCols, aggs)
		csg.SetBatchSize(size)
		got = collectAll(t, csg)
		if Fingerprint(got) != Fingerprint(want) {
			t.Fatalf("trial %d: columnar sort group-by differs (%d vs %d groups)", trial, len(got), len(want))
		}
	}
}

// TestColHashGroupByMultiKeyAllocs: grouping on two columns looks each
// row's key up over one reused buffer, so allocations grow with the
// groups, not with the rows.
func TestColHashGroupByMultiKeyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	rows := make([]Row, 10000)
	for i := range rows {
		rows[i] = Row{int64(i), int64(rng.Intn(10)), int64(rng.Intn(10)), int64(rng.Intn(1000))}
	}
	tab := NewTable("t", NewSchema([]rel.ColID{1, 2, 3, 4}), rows)
	groupCols := []rel.ColID{2, 3}
	aggs := []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: 4}}

	want := refOver(t, tab, &rel.GroupBy{GroupCols: groupCols, Aggs: aggs})
	got := collectAll(t, NewColHashGroupBy(NewColScan(tab), tab.Schema, groupCols, aggs))
	if Fingerprint(got) != Fingerprint(want) {
		t.Fatalf("two-column hash group-by differs: %d vs %d groups", len(got), len(want))
	}
	if PoolsDrop {
		t.Skip("sync.Pool does not keep what it is given")
	}
	allocs := testing.AllocsPerRun(10, func() {
		g := NewColHashGroupBy(NewColScan(tab), tab.Schema, groupCols, aggs)
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		g.Close()
	})
	t.Logf("%.0f allocations, %d groups", allocs, len(want))
	if limit := float64(3*len(want) + 64); allocs > limit {
		t.Fatalf("%.0f allocations grouping %d rows into %d groups, want <= %.0f", allocs, len(rows), len(want), limit)
	}
}

// TestColSortGroupByOverColFilter exercises the selection-vector path of
// the streaming aggregate: a columnar filter feeds the sorted grouping
// directly, so runs are detected through the selection vector.
func TestColSortGroupByOverColFilter(t *testing.T) {
	var rows []Row
	for g := int64(0); g < 50; g++ {
		for i := int64(0); i < 20; i++ {
			rows = append(rows, Row{g, i})
		}
	}
	tab := NewTable("t", NewSchema([]rel.ColID{1, 2}), rows)
	preds := []rel.Pred{{Col: 2, Op: rel.CmpLT, Val: 10}}
	aggs := []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: 2}}

	filtered := NewTable("t", tab.Schema, rowFilter(tab, preds))
	want := refOver(t, filtered, &rel.GroupBy{GroupCols: []rel.ColID{1}, Aggs: aggs})
	got := collectAll(t, NewColSortGroupBy(NewColFilter(NewColScan(tab), tab.Schema, preds), tab.Schema, []rel.ColID{1}, aggs))
	if Fingerprint(got) != Fingerprint(want) {
		t.Fatalf("columnar sort group-by over filter differs: %d vs %d groups", len(got), len(want))
	}
	if len(got) != 50 || got[0][1] != 10 || got[0][2] != 45 {
		t.Fatalf("unexpected group output: %v", got[0])
	}
}

// TestAllocWholeRowChunks is the regression test for the arena-refill
// fix: a chunk that is not a whole-row multiple used to strand its
// remainder at every refill, costing extra allocations. With the chunk
// rounded up to a width multiple, 240 width-3 rows at chunk 8 (rounded
// to 9: three rows per arena) need exactly 80 refills, not 120. Each
// run starts from a spent whole-chunk arena, so that every refill is a
// whole chunk (a fresh batch's first arenas are sized to the rows:
// TestArenaSizedToRows).
func TestAllocWholeRowChunks(t *testing.T) {
	const width, chunk, rows = 3, 8, 240
	b := &Batch{Rows: make([]Row, 0, rows)}
	spent := make([]int64, chunk+1)
	allocs := testing.AllocsPerRun(10, func() {
		b.reset(rows)
		b.arena = spent
		for i := 0; i < rows; i++ {
			b.alloc(width, chunk)
		}
	})
	if allocs > 80 {
		t.Fatalf("%.0f arena refills for %d width-%d rows at chunk %d; want <= 80 (whole-row chunks)",
			allocs, rows, width, chunk)
	}
	// The carved rows must still be distinct, writable storage.
	for i, r := range b.Rows {
		r[0] = int64(i)
	}
	for i, r := range b.Rows {
		if r[0] != int64(i) {
			t.Fatalf("row %d storage aliased", i)
		}
	}
}

// TestArenaSizedToRows checks how arenas grow: a fresh batch's first
// arena holds the rows asked for, rounded up to a power of two, and each
// refill at least doubles the last arena up to the chunk.
func TestArenaSizedToRows(t *testing.T) {
	b := &Batch{}
	if b.carve(13, 1, DefaultBatchSize); cap(b.arena) != 16 {
		t.Fatalf("13 one-value rows: arena %d, want 16", cap(b.arena))
	}
	// Three rows are left; the rest of a full batch takes a whole chunk.
	if got := len(b.carve(DefaultBatchSize-13, 1, DefaultBatchSize)); got != 3 {
		t.Fatalf("carve handed out %d values before refilling, want the 3 left", got)
	}
	if b.carve(DefaultBatchSize-16, 1, DefaultBatchSize); cap(b.arena) != DefaultBatchSize {
		t.Fatalf("a full batch's refill: arena %d, want the chunk %d", cap(b.arena), DefaultBatchSize)
	}
	// Row by row, width 2, chunk 64: arenas of 2, 4, ..., 64 values,
	// then whole chunks.
	b = &Batch{}
	var caps []int
	for range 90 {
		before := cap(b.arena) - len(b.arena)
		b.alloc(2, 64)
		if before < 2 {
			caps = append(caps, cap(b.arena))
		}
	}
	if want := []int{2, 4, 8, 16, 32, 64, 64}; !slices.Equal(caps, want) {
		t.Fatalf("arena refills %v, want %v", caps, want)
	}
}

// TestCarveBlocks checks the bulk carver: headers slice one contiguous
// block, a request larger than what is left of the arena is served in
// pieces with nothing stranded, and refills honor whole-row chunks.
func TestCarveBlocks(t *testing.T) {
	b := &Batch{}
	block := b.carve(2, 3, 6)
	if len(block) != 6 || len(b.Rows) != 2 || cap(b.arena) != 6 {
		t.Fatalf("carve(2,3,6): block %d rows %d arena %d", len(block), len(b.Rows), cap(b.arena))
	}
	for i := range block {
		block[i] = int64(i)
	}
	for i, r := range b.Rows {
		for j := 0; j < 3; j++ {
			if r[j] != int64(i*3+j) {
				t.Fatalf("row %d not a view of the block: %v", i, r)
			}
		}
	}
	// The arena is full: the next request refills (chunk 8 rounds up to
	// three rows) and is cut to what fits; the caller asks again.
	if got := len(b.carve(5, 3, 8)); got != 9 {
		t.Fatalf("carve(5,3,8) after a full arena: block %d, want 9", got)
	}
	if got := len(b.carve(2, 3, 8)); got != 6 || len(b.Rows) != 7 {
		t.Fatalf("carve of the remaining rows: block %d rows %d", got, len(b.Rows))
	}
	// One row of the second refill is left; it is handed out before a
	// third arena is made.
	first := &b.arena[0]
	if got := len(b.carve(4, 3, 8)); got != 3 || &b.arena[0] != first {
		t.Fatalf("carve did not use the arena's last row first: block %d", got)
	}
}

// TestColScanStripes checks that striped columnar scans cover the table
// exactly once.
func TestColScanStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	tab := randTable(rng, []rel.ColID{1, 2}, 1000)
	for _, stripes := range []int{2, 3, 4} {
		var all []Row
		for i := 0; i < stripes; i++ {
			s := NewColScan(tab)
			s.SetStripe(i, stripes)
			s.SetBatchSize(64)
			all = append(all, collectAll(t, s)...)
		}
		if len(all) != tab.Len() {
			t.Fatalf("stripes %d: %d rows, want %d", stripes, len(all), tab.Len())
		}
		if Fingerprint(all) != Fingerprint(storedRows(tab)) {
			t.Fatalf("stripes %d: striped union differs from table", stripes)
		}
	}
}

// --- benchmarks: the columnar kernels at 10⁵ rows.

func benchTable(n int) *Table {
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(i), int64(rng.Intn(n / 6)), int64(rng.Intn(n / 3)), int64(rng.Intn(1000))}
	}
	return NewTable("b", NewSchema([]rel.ColID{1, 2, 3, 4}), rows)
}

func drain(b *testing.B, it Iterator) int {
	rows, err := Collect(it)
	if err != nil {
		b.Fatal(err)
	}
	return len(rows)
}

func BenchmarkScanFilterColumnar(b *testing.B) {
	tab := benchTable(100000)
	preds := []rel.Pred{{Col: 4, Op: rel.CmpLT, Val: 500}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, NewColFilter(NewColScan(tab), tab.Schema, preds))
	}
}

func BenchmarkHashAggColumnar(b *testing.B) {
	tab := benchTable(100000)
	aggs := []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: 4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewColHashGroupBy(NewColScan(tab), tab.Schema, []rel.ColID{2}, aggs)
		g.SizeHint = 100000 / 6
		drain(b, g)
	}
}

func BenchmarkHashJoinColumnar(b *testing.B) {
	tab := benchTable(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewColHashJoin(NewColScan(tab), NewColScan(tab), tab.Schema, tab.Schema, 1, 1, []int{0, 4})
		j.BuildHint = 100000
		drain(b, j)
	}
}
