package minipath_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen/minipath"
	"repro/internal/oodb"
)

// schema builds the standard 4-class test schema.
func schema() *oodb.Catalog {
	cat := oodb.NewCatalog()
	company := cat.AddClass("Company", 10, 400)
	division := cat.AddClass("Division", 100, 300)
	dept := cat.AddClass("Dept", 1000, 200)
	emp := cat.AddClass("Emp", 10000, 150)
	cat.AddScalar(emp, "age", 50)
	cat.AddScalar(emp, "salary", 1000)
	cat.AddRef(emp, "dept", dept)
	cat.AddRef(dept, "division", division)
	cat.AddRef(division, "company", company)
	return cat
}

// TestModelImplementsGeneratedSupport: the hand-maintained oodb.Model is
// itself the Support implementation of the generated package — one
// implementation behind both wirings.
func TestModelImplementsGeneratedSupport(t *testing.T) {
	var _ minipath.Support[oodb.Cost] = oodb.New(schema(), oodb.DefaultParams())
}

// TestGeneratedMatchesHandWired: for path queries of every length, with
// and without selections and assembledness requirements, the generated
// minipath optimizer and the hand-wired oodb model produce identically
// priced plans.
func TestGeneratedMatchesHandWired(t *testing.T) {
	cat := schema()
	m := oodb.New(cat, oodb.DefaultParams())
	generated := minipath.New(m)

	steps := []string{"dept", "division", "company"}
	for k := 0; k <= 3; k++ {
		for _, withSelect := range []bool{false, true} {
			for _, required := range []core.PhysProps{nil, oodb.Assembled} {
				tree := func() *core.ExprTree {
					q := core.Node(&oodb.GetSet{Cls: cat.Class("Emp")})
					if withSelect {
						q = core.Node(&oodb.Select{Attr: "age", Op: oodb.CmpGT, Val: 40}, q)
					}
					for _, s := range steps[:k] {
						q = core.Node(&oodb.Materialize{Attr: s}, q)
					}
					return q
				}

				genOpt := core.NewOptimizer(generated, nil)
				gPlan, err := genOpt.Optimize(genOpt.InsertQuery(tree()), required)
				if err != nil || gPlan == nil {
					t.Fatalf("k=%d sel=%v generated: plan=%v err=%v", k, withSelect, gPlan, err)
				}

				handOpt := core.NewOptimizer(m, nil)
				hPlan, err := handOpt.Optimize(handOpt.InsertQuery(tree()), required)
				if err != nil || hPlan == nil {
					t.Fatalf("k=%d sel=%v hand: plan=%v err=%v", k, withSelect, hPlan, err)
				}

				if gPlan.Cost.(oodb.Cost) != hPlan.Cost.(oodb.Cost) {
					t.Errorf("k=%d sel=%v req=%v: generated %s != hand %s\ngenerated:\n%s\nhand:\n%s",
						k, withSelect, required, gPlan.Cost, hPlan.Cost, gPlan.Format(), hPlan.Format())
				}
			}
		}
	}
}

// TestSelectCommuteGenerated: the generated transformation rule explores
// both selection orders.
func TestSelectCommuteGenerated(t *testing.T) {
	cat := schema()
	m := oodb.New(cat, oodb.DefaultParams())
	opt := core.NewOptimizer(minipath.New(m), nil)
	tree := core.Node(&oodb.Select{Attr: "age", Op: oodb.CmpGT, Val: 30},
		core.Node(&oodb.Select{Attr: "salary", Op: oodb.CmpEQ, Val: 10},
			core.Node(&oodb.GetSet{Cls: cat.Class("Emp")})))
	root := opt.InsertQuery(tree)
	if err := opt.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	if got := len(opt.Memo().Group(root).Exprs()); got != 2 {
		t.Fatalf("root exprs = %d, want 2", got)
	}
}
