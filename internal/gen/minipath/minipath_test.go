package minipath_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen/minipath"
	"repro/internal/oodb"
)

// TestSelectCommuteGenerated: the generated transformation rule explores
// both selection orders. The model is built from the generated package
// directly, over the object model's support code.
func TestSelectCommuteGenerated(t *testing.T) {
	cat := oodb.NewCatalog()
	emp := cat.AddClass("Emp", 10000, 150)
	cat.AddScalar(emp, "age", 50)
	cat.AddScalar(emp, "salary", 1000)

	m := minipath.New[oodb.Cost](&oodb.Support{Cat: cat, P: oodb.DefaultParams()})
	opt := core.NewOptimizer(m, nil)
	tree := core.Node(&oodb.Select{Attr: "age", Op: oodb.CmpGT, Val: 30},
		core.Node(&oodb.Select{Attr: "salary", Op: oodb.CmpEQ, Val: 10},
			core.Node(&oodb.GetSet{Cls: emp})))
	root := opt.InsertQuery(tree)
	if err := opt.ExploreCtx(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	if got := len(opt.Memo().Group(root).Exprs()); got != 2 {
		t.Fatalf("root exprs = %d, want 2", got)
	}
}
