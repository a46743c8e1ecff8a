package rel_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rel"
)

// derive walks a logical tree, deriving properties bottom-up.
func derive(cat *rel.Catalog, t *core.ExprTree) *rel.Props {
	inputs := make([]core.LogicalProps, len(t.Children))
	for i, c := range t.Children {
		inputs[i] = derive(cat, c)
	}
	return rel.DeriveProps(cat, 0, t.Op, inputs)
}

func TestDeriveGet(t *testing.T) {
	cat := demoCatalog(t)
	p := derive(cat, core.Node(&rel.Get{Tab: cat.Table("emp")}))
	if p.Rows != 1000 || p.RowBytes != 100 || len(p.Cols) != 2 {
		t.Fatalf("props = %+v", p)
	}
	if !p.HasCol(cat.ColumnID("emp", "id")) {
		t.Fatal("schema missing id")
	}
	if p.Tables != 1<<0 {
		t.Fatalf("tables bitset = %b", p.Tables)
	}
}

func TestDeriveSelectEquality(t *testing.T) {
	cat := demoCatalog(t)
	dept := cat.ColumnID("emp", "dept")
	tree := core.Node(&rel.Select{Pred: rel.Pred{Col: dept, Op: rel.CmpEQ, Val: 7}},
		core.Node(&rel.Get{Tab: cat.Table("emp")}))
	p := derive(cat, tree)
	if math.Abs(p.Rows-20) > 1e-9 { // 1000 / 50 distinct
		t.Fatalf("rows = %f, want 20", p.Rows)
	}
	if st, ok := p.Stat(dept); !ok || st.Distinct != 1 || st.Min != 7 || st.Max != 7 {
		t.Fatalf("pinned column stats = %+v, %v", st, ok)
	}
	if _, ok := p.Stat(cat.ColumnID("dept", "id")); ok {
		t.Fatal("Stat reports a column outside the schema")
	}
}

func TestDeriveSelectRange(t *testing.T) {
	cat := demoCatalog(t)
	dept := cat.ColumnID("emp", "dept")
	tree := core.Node(&rel.Select{Pred: rel.Pred{Col: dept, Op: rel.CmpLT, Val: 26}},
		core.Node(&rel.Get{Tab: cat.Table("emp")}))
	p := derive(cat, tree)
	want := 1000 * float64(26-1) / float64(50-1)
	if math.Abs(p.Rows-want) > 1e-6 {
		t.Fatalf("rows = %f, want %f", p.Rows, want)
	}
}

func TestDeriveJoin(t *testing.T) {
	cat := demoCatalog(t)
	empDept := cat.ColumnID("emp", "dept")
	deptID := cat.ColumnID("dept", "id")
	tree := core.Node(rel.NewJoin(empDept, deptID),
		core.Node(&rel.Get{Tab: cat.Table("emp")}),
		core.Node(&rel.Get{Tab: cat.Table("dept")}))
	p := derive(cat, tree)
	// 1000 * 50 / max(50, 50) = 1000.
	if math.Abs(p.Rows-1000) > 1e-9 {
		t.Fatalf("rows = %f, want 1000", p.Rows)
	}
	if len(p.Cols) != 3 || p.RowBytes != 180 {
		t.Fatalf("schema = %v width=%d", p.Cols, p.RowBytes)
	}
	if p.Tables != 0b11 {
		t.Fatalf("tables = %b", p.Tables)
	}
}

func TestDeriveProjectWidth(t *testing.T) {
	cat := demoCatalog(t)
	id := cat.ColumnID("emp", "id")
	tree := core.Node(&rel.Project{Cols: []rel.ColID{id}},
		core.Node(&rel.Get{Tab: cat.Table("emp")}))
	p := derive(cat, tree)
	if len(p.Cols) != 1 || p.Cols[0] != id {
		t.Fatalf("schema = %v", p.Cols)
	}
	if p.RowBytes != 50 { // 100 bytes over 2 columns
		t.Fatalf("width = %d, want 50", p.RowBytes)
	}
}

func TestDeriveGroupBy(t *testing.T) {
	cat := demoCatalog(t)
	dept := cat.ColumnID("emp", "dept")
	tree := core.Node(&rel.GroupBy{GroupCols: []rel.ColID{dept}, Aggs: []rel.Agg{{Fn: rel.AggCount}}},
		core.Node(&rel.Get{Tab: cat.Table("emp")}))
	p := derive(cat, tree)
	if p.Rows != 50 {
		t.Fatalf("groups = %f, want 50", p.Rows)
	}
}

func TestDeriveIntersect(t *testing.T) {
	cat := demoCatalog(t)
	get := func() *core.ExprTree { return core.Node(&rel.Get{Tab: cat.Table("dept")}) }
	p := derive(cat, core.Node(&rel.Intersect{}, get(), get()))
	if p.Rows != 25 { // half the smaller input
		t.Fatalf("rows = %f, want 25", p.Rows)
	}
	u := derive(cat, core.Node(&rel.Union{}, get(), get()))
	if u.Rows != 75 { // both inputs less half the smaller as overlap
		t.Fatalf("union rows = %f, want 75", u.Rows)
	}
}

// TestDeriveSelfJoin: a self-join repeats its table's columns in Cols.
// The estimates a column reads back through Stat are the ones the
// map-keyed layout produced (recorded at commit 0395947, where the right
// input's entry overwrote the left's), and the updates that name a
// column — the equated pair's shared distinct count, an equality pin —
// reach every occurrence of it.
func TestDeriveSelfJoin(t *testing.T) {
	cat := demoCatalog(t)
	id, dept := cat.ColumnID("emp", "id"), cat.ColumnID("emp", "dept")
	emp := func() *core.ExprTree { return core.Node(&rel.Get{Tab: cat.Table("emp")}) }
	pinned := func() *core.ExprTree {
		return core.Node(&rel.Select{Pred: rel.Pred{Col: dept, Op: rel.CmpEQ, Val: 7}}, emp())
	}
	pinnedLeft := func() *core.ExprTree { return core.Node(rel.NewJoin(dept, dept), pinned(), emp()) }
	stat := func(d float64, min, max int64) rel.ColStat {
		return rel.ColStat{Distinct: d, Min: min, Max: max, Width: 50}
	}
	cases := []struct {
		name     string
		tree     *core.ExprTree
		rows     float64
		cols     int
		id, dept rel.ColStat
	}{
		// clampDistinct caps the right input's id at the 400 output rows.
		{"pinned-left", pinnedLeft(), 400, 4, stat(400, 1, 1000), stat(1, 1, 50)},
		{"pinned-right", core.Node(rel.NewJoin(dept, dept), emp(), pinned()),
			400, 4, stat(20, 1, 1000), stat(1, 7, 7)},
		{"id-dept", core.Node(rel.NewJoin(id, dept), emp(), pinned()),
			20, 4, stat(1, 1, 1000), stat(1, 7, 7)},
		{"select-over", core.Node(&rel.Select{Pred: rel.Pred{Col: id, Op: rel.CmpEQ, Val: 5}}, pinnedLeft()),
			1, 4, stat(1, 5, 5), stat(1, 1, 50)},
		{"project-over", core.Node(&rel.Project{Cols: []rel.ColID{dept, id}}, pinnedLeft()),
			400, 2, stat(400, 1, 1000), stat(1, 1, 50)},
	}
	for _, c := range cases {
		p := derive(cat, c.tree)
		if p.Rows != c.rows || len(p.Cols) != c.cols {
			t.Errorf("%s: rows %v over %d columns, want %v over %d", c.name, p.Rows, len(p.Cols), c.rows, c.cols)
		}
		if got, ok := p.Stat(id); !ok || got != c.id {
			t.Errorf("%s: Stat(id) = %+v, %v; want %+v", c.name, got, ok, c.id)
		}
		if got, ok := p.Stat(dept); !ok || got != c.dept {
			t.Errorf("%s: Stat(dept) = %+v, %v; want %+v", c.name, got, ok, c.dept)
		}
		if !p.HasCol(id) || !p.HasCol(dept) || p.HasCol(cat.ColumnID("dept", "id")) {
			t.Errorf("%s: HasCol disagrees with the schema %v", c.name, p.Cols)
		}
	}

	// Every occurrence of the equated column carries the shared distinct
	// count, and every occurrence of a pinned column the pin.
	joined := derive(cat, pinnedLeft())
	over := derive(cat, cases[3].tree)
	for i, c := range joined.Cols {
		if c == dept && joined.StatAt(i).Distinct != 1 {
			t.Errorf("dept occurrence %d keeps distinct %v after the join equated it", i, joined.StatAt(i).Distinct)
		}
		if st := over.StatAt(i); c == id && (st.Distinct != 1 || st.Min != 5 || st.Max != 5) {
			t.Errorf("id occurrence %d not pinned: %+v", i, st)
		}
	}
}

func TestPages(t *testing.T) {
	cat := demoCatalog(t)
	p := derive(cat, core.Node(&rel.Get{Tab: cat.Table("emp")}))
	// 4096/100 = 40 rows per page; 1000/40 = 25 pages.
	if got := p.Pages(4096); math.Abs(got-25) > 1e-9 {
		t.Fatalf("pages = %f, want 25", got)
	}
	if got := p.Pages(0); got != 0 {
		t.Fatalf("pages with zero page size = %f", got)
	}
}

// randPred generates predicates over the emp.dept column domain.
type randPred rel.Pred

func (randPred) Generate(r *rand.Rand, _ int) reflect.Value {
	ops := []rel.CmpOp{rel.CmpEQ, rel.CmpNE, rel.CmpLT, rel.CmpLE, rel.CmpGT, rel.CmpGE}
	return reflect.ValueOf(randPred{
		Op:  ops[r.Intn(len(ops))],
		Val: int64(r.Intn(60)) - 5, // includes out-of-domain values
	})
}

// TestQuickSelectivityBounds: selectivity estimates always land in
// [0, 1], and derived row counts never go negative or exceed the input.
func TestQuickSelectivityBounds(t *testing.T) {
	cat := demoCatalog(t)
	dept := cat.ColumnID("emp", "dept")
	base := derive(cat, core.Node(&rel.Get{Tab: cat.Table("emp")}))
	check := func(rp randPred) bool {
		p := rel.Pred{Col: dept, Op: rp.Op, Val: rp.Val}
		sel := rel.Selectivity(p, base)
		if sel < 0 || sel > 1 {
			t.Logf("selectivity(%s) = %f", p, sel)
			return false
		}
		out := rel.DeriveProps(cat, 0, &rel.Select{Pred: p}, []core.LogicalProps{base})
		if out.Rows < 0 || out.Rows > base.Rows+1e-9 {
			t.Logf("rows %f outside [0, %f]", out.Rows, base.Rows)
			return false
		}
		for i := range out.Cols {
			if st := out.StatAt(i); st.Distinct > out.Rows+1 {
				t.Logf("distinct %f > rows %f", st.Distinct, out.Rows)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOpIdentity: ArgsEqual/ArgsHash agree, and NewJoin canonicalizes.
func TestOpIdentity(t *testing.T) {
	cat := demoCatalog(t)
	a, b := cat.ColumnID("emp", "dept"), cat.ColumnID("dept", "id")
	j1, j2 := rel.NewJoin(a, b), rel.NewJoin(b, a)
	if !j1.ArgsEqual(j2) || j1.ArgsHash() != j2.ArgsHash() {
		t.Fatal("NewJoin does not canonicalize the pair")
	}
	s1 := &rel.Select{Pred: rel.Pred{Col: a, Op: rel.CmpEQ, Val: 1}}
	s2 := &rel.Select{Pred: rel.Pred{Col: a, Op: rel.CmpEQ, Val: 2}}
	if s1.ArgsEqual(s2) {
		t.Fatal("different selections compare equal")
	}
	g1 := &rel.Get{Tab: cat.Table("emp")}
	g2 := &rel.Get{Tab: cat.Table("dept")}
	if g1.ArgsEqual(g2) || g1.ArgsHash() == g2.ArgsHash() {
		t.Fatal("different scans conflate")
	}
	ops := []core.LogicalOp{g1, s1, j1,
		&rel.Project{Cols: []rel.ColID{a}},
		&rel.Intersect{},
		&rel.GroupBy{GroupCols: []rel.ColID{a}, Aggs: []rel.Agg{{Fn: rel.AggSum, Col: b}}},
	}
	for _, op := range ops {
		if op.Name() == "" || op.String() == "" {
			t.Errorf("%T has empty display name", op)
		}
		if !op.ArgsEqual(op) {
			t.Errorf("%T not equal to itself", op)
		}
	}
}
