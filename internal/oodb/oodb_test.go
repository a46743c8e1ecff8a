package oodb_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
)

// schema: Emp(10k) -salary-> ; Emp.dept -> Dept(1k); Dept.division ->
// Division(100); Division.company -> Company(10).
func schema(t *testing.T) *oodb.Catalog {
	t.Helper()
	cat := oodb.NewCatalog()
	company := cat.AddClass("Company", 10, 400)
	division := cat.AddClass("Division", 100, 300)
	dept := cat.AddClass("Dept", 1000, 200)
	emp := cat.AddClass("Emp", 10000, 150)
	cat.AddScalar(emp, "salary", 1000)
	cat.AddScalar(emp, "age", 50)
	cat.AddScalar(dept, "budget", 100)
	cat.AddScalar(company, "founded", 10)
	cat.AddRef(emp, "dept", dept)
	cat.AddRef(dept, "division", division)
	cat.AddRef(division, "company", company)
	return cat
}

// pathQuery builds GETSET(Emp) with optional selection, then a chain of
// materialize steps.
func pathQuery(cat *oodb.Catalog, withSelect bool, steps ...string) *core.ExprTree {
	tree := core.Node(&oodb.GetSet{Cls: cat.Class("Emp")})
	if withSelect {
		tree = core.Node(&oodb.Select{Attr: "age", Op: oodb.CmpGT, Val: 40}, tree)
	}
	for _, s := range steps {
		tree = core.Node(&oodb.Materialize{Attr: s}, tree)
	}
	return tree
}

func optimize(t *testing.T, cat *oodb.Catalog, q *core.ExprTree) (*core.Plan, *core.Optimizer) {
	t.Helper()
	opt := core.NewOptimizer(oodb.New(cat, oodb.DefaultParams()), nil)
	root := opt.InsertQuery(q)
	plan, err := opt.Optimize(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	if opt.Stats().ConsistencyViolations != 0 {
		t.Fatal("consistency violations")
	}
	return plan, opt
}

// TestShortPathUsesPointerChase: one materialize step is cheaper by
// chasing than by assembling the whole closure.
func TestShortPathUsesPointerChase(t *testing.T) {
	cat := schema(t)
	plan, _ := optimize(t, cat, pathQuery(cat, false, "dept"))
	if !strings.Contains(plan.String(), "pointer-chase") {
		t.Fatalf("plan does not pointer-chase:\n%s", plan.Format())
	}
	if strings.Contains(plan.String(), "assembly") {
		t.Fatalf("plan assembles for a single step:\n%s", plan.Format())
	}
}

// TestLongPathUsesAssembly: three materialize steps amortize the
// assembly operator; the optimizer enforces assembledness once and
// traverses in memory.
func TestLongPathUsesAssembly(t *testing.T) {
	cat := schema(t)
	plan, _ := optimize(t, cat, pathQuery(cat, false, "dept", "division", "company"))
	s := plan.String()
	if !strings.Contains(s, "assembly") || !strings.Contains(s, "assembled-traverse") {
		t.Fatalf("plan does not use assembly:\n%s", plan.Format())
	}
}

// TestSelectionReducesAssemblyCost: with a selective filter before the
// path, the assembly runs on fewer objects and stays ahead of chasing.
func TestSelectionReducesAssemblyCost(t *testing.T) {
	cat := schema(t)
	withSel, _ := optimize(t, cat, pathQuery(cat, true, "dept", "division", "company"))
	without, _ := optimize(t, cat, pathQuery(cat, false, "dept", "division", "company"))
	if !withSel.Cost.(oodb.Cost).Less(without.Cost.(oodb.Cost)) {
		t.Fatalf("selection did not reduce cost: %v vs %v", withSel.Cost, without.Cost)
	}
}

// TestAssemblyCrossover sweeps path length and checks the switch point:
// chase for short paths, assembly for long ones, with costs matching
// the model arithmetic.
func TestAssemblyCrossover(t *testing.T) {
	cat := schema(t)
	steps := []string{"dept", "division", "company"}
	var prev oodb.Cost
	for k := 1; k <= 3; k++ {
		plan, _ := optimize(t, cat, pathQuery(cat, false, steps[:k]...))
		usesAssembly := strings.Contains(plan.String(), "assembly")
		t.Logf("k=%d cost=%s assembly=%v", k, plan.Cost, usesAssembly)
		if k == 1 && usesAssembly {
			t.Error("k=1 should pointer-chase")
		}
		if k >= 2 && !usesAssembly {
			t.Errorf("k=%d should assemble", k)
		}
		if k > 1 && plan.Cost.(oodb.Cost).Less(prev) {
			t.Errorf("cost decreased with longer path")
		}
		prev = plan.Cost.(oodb.Cost)
	}
}

// TestSelectCommute: stacked selections explore both orders; the plan
// remains valid and the class contains both expressions.
func TestSelectCommute(t *testing.T) {
	cat := schema(t)
	tree := core.Node(&oodb.Select{Attr: "age", Op: oodb.CmpGT, Val: 30},
		core.Node(&oodb.Select{Attr: "salary", Op: oodb.CmpEQ, Val: 50},
			core.Node(&oodb.GetSet{Cls: cat.Class("Emp")})))
	opt := core.NewOptimizer(oodb.New(cat, oodb.DefaultParams()), nil)
	root := opt.InsertQuery(tree)
	if err := opt.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	if got := len(opt.Memo().Group(root).Exprs()); got != 2 {
		t.Fatalf("root exprs = %d, want 2 (both selection orders)", got)
	}
}

// TestInvalidSelectRejected: a selection on a non-scalar attribute never
// qualifies (condition code type check) and the query has no plan.
func TestInvalidSelectRejected(t *testing.T) {
	cat := schema(t)
	tree := core.Node(&oodb.Select{Attr: "dept", Op: oodb.CmpEQ, Val: 1},
		core.Node(&oodb.GetSet{Cls: cat.Class("Emp")}))
	opt := core.NewOptimizer(oodb.New(cat, oodb.DefaultParams()), nil)
	root := opt.InsertQuery(tree)
	plan, err := opt.Optimize(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatalf("selection on a reference attribute produced a plan:\n%s", plan.Format())
	}
}

// TestAssembledRequirement: requiring assembled output forces the
// enforcer even on a bare extent scan.
func TestAssembledRequirement(t *testing.T) {
	cat := schema(t)
	opt := core.NewOptimizer(oodb.New(cat, oodb.DefaultParams()), nil)
	root := opt.InsertQuery(pathQuery(cat, false))
	plan, err := opt.Optimize(root, oodb.Assembled)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Op.Name() != "assembly" {
		t.Fatalf("plan = %v, want assembly at root", plan)
	}
	if !plan.Delivered.Covers(oodb.Assembled) {
		t.Fatal("assembled requirement not delivered")
	}
}

// TestLimitEqualToOptimumReturnsIt: the limit of OptimizeWithLimitCtx is
// inclusive, so a limit equal to the optimum's cost returns the optimum,
// unguided and guided by the syntactic seed, and the guided run finishes
// in its one seeded stage.
func TestLimitEqualToOptimumReturnsIt(t *testing.T) {
	cat := schema(t)
	steps := []string{"dept", "division", "company"}
	run := func(q *core.ExprTree, required core.PhysProps, sp core.SeedPlanner, limit core.Cost) (*core.Plan, *core.Optimizer) {
		opt := core.NewOptimizer(oodb.New(cat, oodb.DefaultParams()),
			&core.Options{Guidance: core.GuidanceOptions{SeedPlanner: sp}})
		plan, err := opt.OptimizeWithLimitCtx(context.Background(), opt.InsertQuery(q), required, limit)
		if err != nil {
			t.Fatal(err)
		}
		return plan, opt
	}
	for k := 0; k <= len(steps); k++ {
		for _, sel := range []bool{false, true} {
			for _, required := range []core.PhysProps{oodb.Any, oodb.Assembled} {
				q := pathQuery(cat, sel, steps[:k]...)
				want, _ := run(q, required, nil, oodb.Infinite)
				if want == nil {
					t.Fatalf("%d steps, select %v, %v: no plan", k, sel, required)
				}
				for _, sp := range []core.SeedPlanner{nil, core.SyntacticSeedPlanner()} {
					plan, opt := run(q, required, sp, want.Cost)
					if plan == nil || plan.Cost != want.Cost {
						t.Fatalf("%d steps, select %v, %v, guided %v: plan %v, want cost %v", k, sel, required, sp != nil, plan, want.Cost)
					}
					if st := opt.Stats(); sp != nil && st.LimitStages != 1 {
						t.Errorf("%d steps, select %v, %v: %d limit stages, want 1", k, sel, required, st.LimitStages)
					}
				}
			}
		}
	}
}

// TestImplementationRulesAllocateNothing: the rules and the enforcer are
// built once, by New; the search asks for them on every move collection.
func TestImplementationRulesAllocateNothing(t *testing.T) {
	m := oodb.New(schema(t), oodb.DefaultParams())
	if n := testing.AllocsPerRun(100, func() { m.ImplementationRules() }); n != 0 {
		t.Errorf("ImplementationRules allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Enforcers() }); n != 0 {
		t.Errorf("Enforcers allocates %.0f times per call, want 0", n)
	}
	if len(m.ImplementationRules()) != 4 || len(m.Enforcers()) != 1 {
		t.Fatalf("%d rules and %d enforcers, want 4 and 1", len(m.ImplementationRules()), len(m.Enforcers()))
	}
}
