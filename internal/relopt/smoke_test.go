package relopt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/rel"
)

// testCatalog builds a three-table catalog: emp(id,dept,age),
// dept(id,head), proj(head,budget) with a chain join path
// emp.dept = dept.id, dept.head = proj.head.
func testCatalog(t *testing.T) (*rel.Catalog, map[string]rel.ColID) {
	t.Helper()
	cat := rel.NewCatalog()
	cols := make(map[string]rel.ColID)

	emp := cat.AddTable("emp", 7200, 100)
	cols["emp.id"] = cat.AddColumn(emp, "id", 7200, 1, 7200)
	cols["emp.dept"] = cat.AddColumn(emp, "dept", 1200, 1, 1200)
	cols["emp.age"] = cat.AddColumn(emp, "age", 50, 18, 67)

	dept := cat.AddTable("dept", 1200, 100)
	cols["dept.id"] = cat.AddColumn(dept, "id", 1200, 1, 1200)
	cols["dept.head"] = cat.AddColumn(dept, "head", 1200, 1, 1200)

	proj := cat.AddTable("proj", 2400, 100)
	cols["proj.head"] = cat.AddColumn(proj, "head", 1200, 1, 1200)
	cols["proj.budget"] = cat.AddColumn(proj, "budget", 1000, 0, 1_000_000)

	return cat, cols
}

// chainQuery builds SELECT over emp ⋈ dept ⋈ proj with one selection.
func chainQuery(cat *rel.Catalog, cols map[string]rel.ColID) *core.ExprTree {
	scanEmp := core.Node(&rel.Get{Tab: cat.Table("emp")})
	scanDept := core.Node(&rel.Get{Tab: cat.Table("dept")})
	scanProj := core.Node(&rel.Get{Tab: cat.Table("proj")})
	selEmp := core.Node(&rel.Select{Pred: rel.Pred{Col: cols["emp.age"], Op: rel.CmpGT, Val: 40}}, scanEmp)
	j1 := core.Node(rel.NewJoin(cols["emp.dept"], cols["dept.id"]), selEmp, scanDept)
	j2 := core.Node(rel.NewJoin(cols["dept.head"], cols["proj.head"]), j1, scanProj)
	return j2
}

func TestSmokeOptimizeChain(t *testing.T) {
	cat, cols := testCatalog(t)
	model := New(cat, DefaultConfig())
	opt := core.NewOptimizer(model, nil)
	root := opt.InsertQuery(chainQuery(cat, cols))

	plan, err := opt.Optimize(root, nil)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if plan == nil {
		t.Fatal("Optimize returned no plan")
	}
	t.Logf("plan:\n%s", plan.Format())
	t.Logf("stats: %+v", *opt.Stats())
	if plan.Cost.(Cost).Total() <= 0 {
		t.Fatalf("plan cost %v not positive", plan.Cost)
	}
}

// TestDeclinedSeedRunsUnguided: the greedy seeder declines a PROJECT
// root. Without a budget the seed planner then returns no seed, so guided
// search is exactly the unguided one — same counters, same cost bits, no
// scratch syntactic pass. Under a budget the syntactic plan is still
// captured as the anytime floor.
func TestDeclinedSeedRunsUnguided(t *testing.T) {
	cat, cols := testCatalog(t)
	model := New(cat, DefaultConfig())
	query := core.Node(&rel.Project{Cols: []rel.ColID{cols["emp.id"], cols["proj.budget"]}}, chainQuery(cat, cols))
	run := func(opts *core.Options) (*core.Plan, *core.Stats) {
		opt := core.NewOptimizer(model, opts)
		plan, err := opt.Optimize(opt.InsertQuery(query), nil)
		coretest.CheckMemo(t, opt)
		if err != nil || plan == nil {
			t.Fatalf("optimize: %v", err)
		}
		return plan, opt.Stats()
	}
	guidance := core.GuidanceOptions{SeedPlanner: model.SeedPlanner()}
	up, us := run(nil)
	gp, gs := run(&core.Options{Guidance: guidance})
	if gs.SeedCost != nil {
		t.Errorf("declined shape seeded at %s without a budget", gs.SeedCost)
	}
	if gs.Steps() != us.Steps() || gs.MatchCalls != us.MatchCalls || gs.Exprs != us.Exprs {
		t.Errorf("guided steps/matches/exprs %d/%d/%d, unguided %d/%d/%d",
			gs.Steps(), gs.MatchCalls, gs.Exprs, us.Steps(), us.MatchCalls, us.Exprs)
	}
	if g, u := gp.Cost.(Cost), up.Cost.(Cost); g != u {
		t.Errorf("guided cost %s, unguided %s", g, u)
	}
	_, bs := run(&core.Options{Guidance: guidance, Budget: core.Budget{MaxSteps: 1 << 20}})
	if bs.SeedFloorCost == nil {
		t.Error("budgeted run captured no syntactic floor")
	}
}

func TestSmokeOptimizeSorted(t *testing.T) {
	cat, cols := testCatalog(t)
	model := New(cat, DefaultConfig())
	opt := core.NewOptimizer(model, nil)
	root := opt.InsertQuery(chainQuery(cat, cols))

	required := SortedOn(cols["emp.dept"])
	plan, err := opt.Optimize(root, required)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if plan == nil {
		t.Fatal("Optimize returned no plan for sorted requirement")
	}
	if !plan.Delivered.Covers(required) {
		t.Fatalf("delivered %s does not cover required %s", plan.Delivered, required)
	}
	t.Logf("sorted plan:\n%s", plan.Format())
	if opt.Stats().ConsistencyViolations != 0 {
		t.Fatalf("consistency violations: %d", opt.Stats().ConsistencyViolations)
	}
}
