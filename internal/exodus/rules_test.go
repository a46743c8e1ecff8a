package exodus

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// pushdownFixture builds σ(emp.age)(emp ⋈ dept): the selection sits
// above the join, so only the pushdown rule can move it down.
func pushdownFixture() (*rel.Catalog, *core.ExprTree, rel.ColID) {
	cat := rel.NewCatalog()
	emp := cat.AddTable("emp", 4000, 100)
	cat.AddColumn(emp, "id", 4000, 1, 4000)
	empDept := cat.AddColumn(emp, "dept", 100, 1, 100)
	empAge := cat.AddColumn(emp, "age", 50, 18, 67)
	dept := cat.AddTable("dept", 100, 100)
	deptID := cat.AddColumn(dept, "id", 100, 1, 100)

	join := core.Node(rel.NewJoin(empDept, deptID),
		core.Node(&rel.Get{Tab: emp}),
		core.Node(&rel.Get{Tab: dept}))
	sel := core.Node(&rel.Select{Pred: rel.Pred{Col: empAge, Op: rel.CmpLT, Val: 30}}, join)
	return cat, sel, empDept
}

// TestSelectPushdownMatchesVolcano: both engines must find the pushed
// selection (it is strictly cheaper), and agree on the optimum for this
// small query.
func TestSelectPushdownMatchesVolcano(t *testing.T) {
	cat, query, orderCol := pushdownFixture()

	ex := New(cat, Config{Timeout: 30 * time.Second})
	_, exCost, err := ex.Optimize(query, orderCol)
	if err != nil {
		t.Fatal(err)
	}

	opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
	root := opt.InsertQuery(query)
	plan, err := opt.Optimize(root, relopt.SortedOn(orderCol))
	if err != nil || plan == nil {
		t.Fatal(err)
	}
	vo := plan.Cost.(relopt.Cost)
	if exCost.Less(vo) {
		t.Fatalf("EXODUS %v beats Volcano optimum %v", exCost, vo)
	}
	if vo.Less(exCost) {
		t.Fatalf("EXODUS missed the pushed-down plan: %v vs %v", exCost, vo)
	}
}

// TestSelectCommuteClosure: two stacked selections explore both orders
// in MESH.
func TestSelectCommuteClosure(t *testing.T) {
	cat := rel.NewCatalog()
	emp := cat.AddTable("emp", 1000, 100)
	a := cat.AddColumn(emp, "a", 100, 1, 100)
	b := cat.AddColumn(emp, "b", 10, 1, 10)

	tree := core.Node(&rel.Select{Pred: rel.Pred{Col: a, Op: rel.CmpLT, Val: 50}},
		core.Node(&rel.Select{Pred: rel.Pred{Col: b, Op: rel.CmpEQ, Val: 3}},
			core.Node(&rel.Get{Tab: emp})))
	opt := New(cat, Config{})
	if _, _, err := opt.Optimize(tree, 0); err != nil {
		t.Fatal(err)
	}
	// GET, two single selects, two stacked orders = 5 expressions.
	if got := opt.Stats().Exprs; got != 5 {
		t.Fatalf("exprs = %d, want 5", got)
	}
}

// TestTimeoutAbort: an unreasonably small time budget aborts cleanly.
func TestTimeoutAbort(t *testing.T) {
	s := datagen.New(9)
	cat := s.Catalog(8)
	q := s.SelectJoinQuery(cat, 8, datagen.ShapeRandom)
	opt := New(cat, Config{Timeout: time.Nanosecond})
	if _, _, err := opt.Optimize(q.Root, 0); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestIncidentalOrderExploited: with the required order matching a
// merge-join output, no separate final sort is charged.
func TestIncidentalOrderExploited(t *testing.T) {
	cat := rel.NewCatalog()
	// Two small tables whose join strongly favors merge-join when the
	// output must be ordered on the join column.
	r1 := cat.AddTable("r1", 2000, 100)
	c1 := cat.AddColumn(r1, "k", 50, 1, 50)
	r2 := cat.AddTable("r2", 3000, 100)
	c2 := cat.AddColumn(r2, "k", 50, 1, 50)

	query := core.Node(rel.NewJoin(c1, c2),
		core.Node(&rel.Get{Tab: r1}),
		core.Node(&rel.Get{Tab: r2}))

	opt := New(cat, Config{})
	node, cost, err := opt.Optimize(query, c1)
	if err != nil {
		t.Fatal(err)
	}
	if node.Alg != "merge-join" {
		t.Fatalf("chosen alg = %s, want merge-join for ordered output", node.Alg)
	}
	// The adjusted cost must equal the node's own cost: the merge-join
	// output is incidentally ordered on both equated columns.
	if cost.Total() != node.Cost.Total() {
		t.Fatalf("final sort charged despite incidental order: %f vs %f",
			cost.Total(), node.Cost.Total())
	}
	if !node.sortedOnCol(c1) || !node.sortedOnCol(c2) {
		t.Fatal("merge-join output should be ordered on both join columns")
	}
}

// TestStatsAndMemory: counters populate and the MESH memory estimate
// grows with search effort.
func TestStatsAndMemory(t *testing.T) {
	s := datagen.New(10)
	cat := s.Catalog(6)
	small := New(cat, Config{})
	if _, _, err := small.Optimize(s.SelectJoinQuery(cat, 2, datagen.ShapeRandom).Root, 0); err != nil {
		t.Fatal(err)
	}
	big := New(cat, Config{})
	if _, _, err := big.Optimize(s.SelectJoinQuery(cat, 6, datagen.ShapeRandom).Root, 0); err != nil {
		t.Fatal(err)
	}
	ss, bs := small.Stats(), big.Stats()
	if bs.Nodes <= ss.Nodes || bs.MemoryBytes <= ss.MemoryBytes {
		t.Fatalf("effort did not grow: %+v vs %+v", ss, bs)
	}
	if bs.Transforms == 0 || bs.EqClasses == 0 {
		t.Fatalf("missing counters: %+v", bs)
	}
}

// TestNodeFormatting: the MESH plan rendering shows the chosen
// algorithms with their logical operators and costs.
func TestNodeFormatting(t *testing.T) {
	cat, query, _ := pushdownFixture()
	opt := New(cat, Config{})
	node, _, err := opt.Optimize(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := node.Format()
	for _, want := range []string{"filescan", "cost="} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	algs := node.Algorithms()
	if len(algs) < 3 {
		t.Fatalf("algorithms = %v", algs)
	}
}

// TestClosureMatchesVolcano: both engines apply the same transformation
// rules exhaustively, so the root equivalence class must contain the
// same number of distinct logical expressions (all join orders).
func TestClosureMatchesVolcano(t *testing.T) {
	s := datagen.New(14)
	cat := s.Catalog(6)
	for n := 2; n <= 6; n++ {
		q := s.SelectJoinQuery(cat, n, datagen.ShapeRandom)

		ex := New(cat, Config{Timeout: 30 * time.Second})
		node, _, err := ex.Optimize(q.Root, 0)
		if err != nil {
			t.Fatalf("n=%d exodus: %v", n, err)
		}

		vo := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
		root := vo.InsertQuery(q.Root)
		if err := vo.ExploreCtx(context.Background(), root); err != nil {
			t.Fatalf("n=%d volcano: %v", n, err)
		}
		memo := vo.Memo()
		distinct := map[string]bool{}
		for _, e := range memo.Group(root).Exprs() {
			key := e.Op.String()
			for _, in := range e.Inputs {
				key += ":" + itoa(int(memo.Find(in)))
			}
			distinct[key] = true
		}
		if got, want := node.ClassSize(), len(distinct); got != want {
			t.Errorf("n=%d: EXODUS root class has %d expressions, Volcano %d", n, got, want)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
