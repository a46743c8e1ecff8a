package exec_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// smallData builds a catalog and matching database small enough for the
// nested-loops reference evaluator.
func smallData(t *testing.T, seed int64, tables int) (*rel.Catalog, *exec.DB, *datagen.Source) {
	t.Helper()
	s := datagen.New(seed)
	cat := rel.NewCatalog()
	for i := 1; i <= tables; i++ {
		tab := cat.AddTable(tname(i), int64(40+20*i), 100)
		cat.AddColumn(tab, "id", int64(40+20*i), 1, int64(40+20*i))
		cat.AddColumn(tab, "ja", int64(10+5*i), 1, int64(10+5*i))
		cat.AddColumn(tab, "jb", int64(5+3*i), 1, int64(5+3*i))
		cat.AddColumn(tab, "v", 50, 0, 49)
	}
	return cat, exec.FromData(cat, s.Rows(cat)), s
}

func tname(i int) string {
	return string(rune('A'+i-1)) + "t"
}

// optimize runs the Volcano optimizer on a query.
func optimize(t *testing.T, cat *rel.Catalog, q *core.ExprTree, required core.PhysProps, cfg relopt.Config) *core.Plan {
	t.Helper()
	model := relopt.New(cat, cfg)
	opt := core.NewOptimizer(model, nil)
	root := opt.InsertQuery(q)
	plan, err := opt.Optimize(root, required)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	if opt.Stats().ConsistencyViolations != 0 {
		t.Fatalf("consistency violations: %d", opt.Stats().ConsistencyViolations)
	}
	return plan
}

// TestPlansMatchReference optimizes random select-join queries, executes
// the chosen plans, and compares row multisets against direct
// evaluation of the logical expression.
func TestPlansMatchReference(t *testing.T) {
	cat, db, s := smallData(t, 42, 5)
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%4
		q := s.SelectJoinQuery(cat, n, datagen.ShapeRandom)

		want, wantSchema, err := exec.Reference(db, q.Root)
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}

		plan := optimize(t, cat, q.Root, nil, relopt.DefaultConfig())
		got, gotSchema, err := exec.Run(db, plan)
		if err != nil {
			t.Fatalf("trial %d run: %v\nplan:\n%s", trial, err, plan.Format())
		}
		got = exec.Canonical(got, gotSchema)
		want = exec.Canonical(want, wantSchema)
		if exec.Fingerprint(got) != exec.Fingerprint(want) {
			t.Fatalf("trial %d: plan result differs from reference (%d vs %d rows)\nplan:\n%s",
				trial, len(got), len(want), plan.Format())
		}
	}
}

// TestSortedPlansDeliverOrder verifies at runtime that plans optimized
// for a sort requirement actually produce sorted output — the dynamic
// counterpart of the optimizer's consistency check.
func TestSortedPlansDeliverOrder(t *testing.T) {
	cat, db, s := smallData(t, 43, 5)
	for trial := 0; trial < 15; trial++ {
		n := 2 + trial%4
		q := s.SelectJoinQuery(cat, n, datagen.ShapeRandom)
		sortCol := q.Joins[0][0]

		required := relopt.SortedOn(sortCol)
		plan := optimize(t, cat, q.Root, required, relopt.DefaultConfig())
		got, schema, err := exec.Run(db, plan)
		if err != nil {
			t.Fatalf("trial %d run: %v", trial, err)
		}
		if !exec.SortedBy(got, []int{schema.Pos(sortCol)}) {
			t.Fatalf("trial %d: output not sorted on c%d\nplan:\n%s", trial, sortCol, plan.Format())
		}

		want, wantSchema, err := exec.Reference(db, q.Root)
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		if exec.Fingerprint(exec.Canonical(got, schema)) != exec.Fingerprint(exec.Canonical(want, wantSchema)) {
			t.Fatalf("trial %d: sorted plan result differs from reference", trial)
		}
	}
}

// TestJoinAlgorithmsAgree runs the same join through merge-join,
// hash-join, and nested-loops and checks all three produce identical
// multisets.
func TestJoinAlgorithmsAgree(t *testing.T) {
	cat, db, _ := smallData(t, 44, 2)
	a, b := cat.Table(tname(1)), cat.Table(tname(2))
	la := cat.ColumnID(a.Name, "ja")
	rb := cat.ColumnID(b.Name, "ja")

	ls, rs := db.Table(a.Name), db.Table(b.Name)
	lp, rp := ls.Schema.Pos(la), rs.Schema.Pos(rb)

	sortedL := exec.NewSort(exec.NewColScan(ls), ls.Schema, []relopt.OrderCol{{Col: la}})
	sortedR := exec.NewSort(exec.NewColScan(rs), rs.Schema, []relopt.OrderCol{{Col: rb}})
	merge, err := exec.Collect(exec.NewMergeJoin(sortedL, sortedR, ls.Schema, rs.Schema, lp, rp, nil))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	hash, err := exec.Collect(exec.NewColHashJoin(exec.NewColScan(ls), exec.NewColScan(rs), ls.Schema, rs.Schema, lp, rp, nil))
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	nl, err := exec.Collect(exec.NewNLJoin(exec.NewColScan(ls), exec.NewColScan(rs), ls.Schema, rs.Schema, lp, rp))
	if err != nil {
		t.Fatalf("nl: %v", err)
	}
	if len(merge) == 0 {
		t.Fatal("join produced no rows; test data too sparse")
	}
	if exec.Fingerprint(merge) != exec.Fingerprint(hash) {
		t.Errorf("merge-join and hash-join disagree: %d vs %d rows", len(merge), len(hash))
	}
	if exec.Fingerprint(merge) != exec.Fingerprint(nl) {
		t.Errorf("merge-join and nl-join disagree: %d vs %d rows", len(merge), len(nl))
	}
}

// TestParallelPlanMatchesSerial optimizes the same query serially and
// with a partitioning requirement, and checks the gathered parallel
// result equals the serial result.
func TestParallelPlanMatchesSerial(t *testing.T) {
	cat, db, s := smallData(t, 45, 4)
	for trial := 0; trial < 10; trial++ {
		q := s.SelectJoinQuery(cat, 3, datagen.ShapeChain)

		serialPlan := optimize(t, cat, q.Root, nil, relopt.DefaultConfig())
		want, wantSchema, err := exec.Run(db, serialPlan)
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}

		cfg := relopt.DefaultConfig()
		cfg.Parallel = true
		cfg.Degree = 4
		required := relopt.HashPartitioned(q.Joins[0][0], 4)
		parPlan := optimize(t, cat, q.Root, required, cfg)
		got, gotSchema, err := exec.Run(db, parPlan)
		if err != nil {
			t.Fatalf("trial %d parallel: %v\nplan:\n%s", trial, err, parPlan.Format())
		}
		got = exec.Canonical(got, gotSchema)
		want = exec.Canonical(want, wantSchema)
		if exec.Fingerprint(got) != exec.Fingerprint(want) {
			t.Fatalf("trial %d: parallel result differs from serial (%d vs %d rows)\nplan:\n%s",
				trial, len(got), len(want), parPlan.Format())
		}
	}
}

// TestTableFootprint pins what a loaded table keeps alive: its two slabs
// of rows × width values, row-major and column-major, and nothing per
// row. A 24-byte header per stored row would add 37% to them.
func TestTableFootprint(t *testing.T) {
	const rows, width = 100000, 4
	cat := rel.NewCatalog()
	tab := cat.AddTable("t", rows, 8*width)
	for _, name := range []string{"a", "b", "c", "d"} {
		cat.AddColumn(tab, name, rows, 0, rows-1)
	}
	load := func() *exec.DB {
		data := make([][]int64, rows)
		for i := range data {
			data[i] = []int64{int64(i), int64(i % 7), int64(i % 11), int64(i % 13)}
		}
		return exec.FromData(cat, map[string][][]int64{"t": data})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and the scratch pools' victim caches
	runtime.ReadMemStats(&before)
	db := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const slabs = 2 * 8 * rows * width
	if retained > slabs+slabs/20 {
		t.Errorf("a loaded %d x %d table retains %d B; its two slabs are %d B", rows, width, retained, slabs)
	}
	if db.Table("t").Len() != rows {
		t.Fatalf("the table holds %d rows, want %d", db.Table("t").Len(), rows)
	}
	runtime.KeepAlive(db)
}
