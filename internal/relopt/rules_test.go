package relopt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/rel"
)

// ruleCatalog builds emp(id,dept,age) ⋈ dept(id,head) fixtures.
func ruleCatalog() (*rel.Catalog, map[string]rel.ColID) {
	cat := rel.NewCatalog()
	cols := map[string]rel.ColID{}
	emp := cat.AddTable("emp", 4000, 100)
	cols["emp.id"] = cat.AddColumn(emp, "id", 4000, 1, 4000)
	cols["emp.dept"] = cat.AddColumn(emp, "dept", 100, 1, 100)
	cols["emp.age"] = cat.AddColumn(emp, "age", 50, 18, 67)
	dept := cat.AddTable("dept", 100, 100)
	cols["dept.id"] = cat.AddColumn(dept, "id", 100, 1, 100)
	cols["dept.head"] = cat.AddColumn(dept, "head", 100, 1, 100)
	return cat, cols
}

// optimizePlan is a small fixture runner.
func optimizePlan(t *testing.T, cat *rel.Catalog, cfg Config, tree *core.ExprTree, required core.PhysProps) *core.Plan {
	t.Helper()
	opt := core.NewOptimizer(New(cat, cfg), nil)
	root := opt.InsertQuery(tree)
	plan, err := opt.Optimize(root, required)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	if opt.Stats().ConsistencyViolations != 0 {
		t.Fatal("consistency violations")
	}
	return plan
}

func joinTree(cat *rel.Catalog, cols map[string]rel.ColID) *core.ExprTree {
	return core.Node(rel.NewJoin(cols["emp.dept"], cols["dept.id"]),
		core.Node(&rel.Get{Tab: cat.Table("emp")}),
		core.Node(&rel.Get{Tab: cat.Table("dept")}))
}

// TestMergeJoinQualifiesForSortedOutput is the paper's running example:
// "when optimizing a join expression whose result should be sorted on
// the join attribute, hybrid hash join does not qualify while merge-join
// qualifies with the requirement that its inputs be sorted."
func TestMergeJoinQualifiesForSortedOutput(t *testing.T) {
	cat, cols := ruleCatalog()
	required := SortedOn(cols["emp.dept"])
	plan := optimizePlan(t, cat, DefaultConfig(), joinTree(cat, cols), required)
	var mj, hhjSorted bool
	plan.Walk(func(p *core.Plan) {
		switch p.Op.(type) {
		case *MergeJoin:
			mj = true
		case *HashJoin:
			if p.Delivered.Covers(required) && p == plan {
				hhjSorted = true
			}
		}
	})
	if !mj && plan.Op.Name() != "sort" {
		t.Fatalf("sorted join neither merge-joins nor sorts:\n%s", plan.Format())
	}
	if hhjSorted {
		t.Fatalf("hash join claimed sorted output:\n%s", plan.Format())
	}
}

// TestSortNeverFedByMergeJoinOnSameOrder: the excluding property vector
// provision — merge-join must not be considered as input to the sort
// that establishes the same order.
func TestSortNeverFedByMergeJoinOnSameOrder(t *testing.T) {
	cat, cols := ruleCatalog()
	required := SortedOn(cols["emp.dept"])
	plan := optimizePlan(t, cat, DefaultConfig(), joinTree(cat, cols), required)
	plan.Walk(func(p *core.Plan) {
		srt, ok := p.Op.(*Sort)
		if !ok || len(p.Inputs) != 1 {
			return
		}
		inDelivered := p.Inputs[0].Delivered.(*PhysProps)
		want := &PhysProps{Sort: srt.Order}
		if inDelivered.Covers(want) {
			t.Errorf("sort over an input already delivering %s:\n%s", want, plan.Format())
		}
	})
}

// TestStoredOrderScan: scanning a clustered table satisfies a matching
// sort requirement with no enforcer.
func TestStoredOrderScan(t *testing.T) {
	cat, cols := ruleCatalog()
	cat.Table("emp").Ordered = []rel.ColID{cols["emp.dept"], cols["emp.id"]}
	tree := core.Node(&rel.Get{Tab: cat.Table("emp")})
	plan := optimizePlan(t, cat, DefaultConfig(), tree, SortedOn(cols["emp.dept"]))
	if _, ok := plan.Op.(*FileScan); !ok {
		t.Fatalf("clustered scan should satisfy the order directly:\n%s", plan.Format())
	}
	// A non-prefix requirement still needs a sort.
	plan = optimizePlan(t, cat, DefaultConfig(), tree, SortedOn(cols["emp.id"]))
	if _, ok := plan.Op.(*Sort); !ok {
		t.Fatalf("non-prefix order must be enforced:\n%s", plan.Format())
	}
}

// TestFusedProjectJoin: PROJECT(JOIN) maps to a single join procedure
// with fused projection; with the fused rules disabled, a separate
// project operator appears and the plan costs at least as much.
func TestFusedProjectJoin(t *testing.T) {
	cat, cols := ruleCatalog()
	tree := core.Node(&rel.Project{Cols: []rel.ColID{cols["emp.id"], cols["dept.head"]}},
		joinTree(cat, cols))

	fused := optimizePlan(t, cat, DefaultConfig(), tree, nil)
	if !strings.Contains(fused.String(), ";proj") {
		t.Fatalf("no fused projection:\n%s", fused.Format())
	}

	cfg := DefaultConfig()
	cfg.DisableFusedProject = true
	separate := optimizePlan(t, cat, cfg, tree, nil)
	if strings.Contains(separate.String(), ";proj") {
		t.Fatalf("fused projection appeared though disabled:\n%s", separate.Format())
	}
	if !strings.Contains(separate.String(), "project(") {
		t.Fatalf("no separate project operator:\n%s", separate.Format())
	}
	if separate.Cost.Less(fused.Cost) {
		t.Fatalf("separate projection cheaper than fused: %s < %s", separate.Cost, fused.Cost)
	}
}

// TestNoCompositeInner: the Starburst-style structural restriction
// produces only left-deep joins (every join's right input reads one
// base relation).
func TestNoCompositeInner(t *testing.T) {
	cat, cols := ruleCatalog()
	// Add a third relation to make bushy shapes possible.
	proj := cat.AddTable("proj", 500, 100)
	projHead := cat.AddColumn(proj, "head", 100, 1, 100)
	tree := core.Node(rel.NewJoin(cols["dept.head"], projHead),
		joinTree(cat, cols),
		core.Node(&rel.Get{Tab: cat.Table("proj")}))

	cfg := DefaultConfig()
	cfg.NoCompositeInner = true
	plan := optimizePlan(t, cat, cfg, tree, nil)
	plan.Walk(func(p *core.Plan) {
		switch p.Op.(type) {
		case *MergeJoin, *HashJoin, *NLJoin:
			right := p.Inputs[1]
			tables := right.LogProps.(*rel.Props).Tables
			if tables&(tables-1) != 0 {
				t.Errorf("composite inner in restricted mode:\n%s", plan.Format())
			}
		}
	})
}

// TestNLJoinOnlyWhenEnabled: nested loops appears in plans only with
// the extended algorithm set.
func TestNLJoinOnlyWhenEnabled(t *testing.T) {
	cat, cols := ruleCatalog()
	hasNL := func(cfg Config) bool {
		opt := core.NewOptimizer(New(cat, cfg), nil)
		root := opt.InsertQuery(joinTree(cat, cols))
		if err := opt.ExploreCtx(context.Background(), root); err != nil {
			t.Fatal(err)
		}
		coretest.CheckMemo(t, opt)
		for _, r := range New(cat, cfg).ImplementationRules() {
			if r.Name == "join->nl-join" {
				return true
			}
		}
		return false
	}
	if hasNL(DefaultConfig()) {
		t.Fatal("nl-join present in the Figure-4 configuration")
	}
	cfg := DefaultConfig()
	cfg.EnableNLJoin = true
	if !hasNL(cfg) {
		t.Fatal("nl-join missing from the extended configuration")
	}
}

// TestGroupByInterestingOrder: grouping over a clustered input uses the
// sort-based algorithm for free; over a heap it hashes.
func TestGroupByInterestingOrder(t *testing.T) {
	cat, cols := ruleCatalog()
	gb := func() *core.ExprTree {
		return core.Node(&rel.GroupBy{
			GroupCols: []rel.ColID{cols["emp.dept"]},
			Aggs:      []rel.Agg{{Fn: rel.AggCount}},
		}, core.Node(&rel.Get{Tab: cat.Table("emp")}))
	}
	heap := optimizePlan(t, cat, DefaultConfig(), gb(), nil)
	if _, ok := heap.Op.(*HashGroupBy); !ok {
		t.Fatalf("heap grouping should hash:\n%s", heap.Format())
	}
	cat2, cols2 := ruleCatalog()
	cat2.Table("emp").Ordered = []rel.ColID{cols2["emp.dept"]}
	clustered := optimizePlan(t, cat2, DefaultConfig(), core.Node(&rel.GroupBy{
		GroupCols: []rel.ColID{cols2["emp.dept"]},
		Aggs:      []rel.Agg{{Fn: rel.AggCount}},
	}, core.Node(&rel.Get{Tab: cat2.Table("emp")})), nil)
	if _, ok := clustered.Op.(*SortGroupBy); !ok {
		t.Fatalf("clustered grouping should use the sorted algorithm:\n%s", clustered.Format())
	}
}

// TestParallelRequirementPlacesExchange: requiring partitioned output
// forces the exchange enforcer; serial mode rejects the requirement.
func TestParallelRequirementPlacesExchange(t *testing.T) {
	cat, cols := ruleCatalog()
	cfg := DefaultConfig()
	cfg.Parallel = true
	cfg.Degree = 4
	required := HashPartitioned(cols["emp.dept"], 4)
	plan := optimizePlan(t, cat, cfg, joinTree(cat, cols), required)
	found := false
	plan.Walk(func(p *core.Plan) {
		if _, ok := p.Op.(*Exchange); ok {
			found = true
		}
	})
	if !found {
		t.Fatalf("no exchange operator in partitioned plan:\n%s", plan.Format())
	}
	if !plan.Delivered.Covers(required) {
		t.Fatal("partitioning not delivered")
	}

	// Without the parallel model there is no enforcer for partitioning.
	opt := core.NewOptimizer(New(cat, DefaultConfig()), nil)
	root := opt.InsertQuery(joinTree(cat, cols))
	p, err := opt.Optimize(root, required)
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("serial model satisfied a partitioning requirement:\n%s", p.Format())
	}
}

// TestMergeUnionRidesStoredOrder: UNION of two ordered scans with an
// ORDER BY on the clustering prefix uses merge-union with no sorts —
// the §5 order-aware treatment of set operations.
func TestMergeUnionRidesStoredOrder(t *testing.T) {
	cat := rel.NewCatalog()
	r := cat.AddTable("R", 5000, 80)
	a := cat.AddColumn(r, "a", 5000, 1, 5000)
	b := cat.AddColumn(r, "b", 100, 1, 100)
	r.Ordered = []rel.ColID{a, b}

	tree := core.Node(&rel.Union{},
		core.Node(&rel.Select{Pred: rel.Pred{Col: b, Op: rel.CmpLT, Val: 40}},
			core.Node(&rel.Get{Tab: r})),
		core.Node(&rel.Select{Pred: rel.Pred{Col: b, Op: rel.CmpGT, Val: 70}},
			core.Node(&rel.Get{Tab: r})))

	plan := optimizePlan(t, cat, DefaultConfig(), tree, SortedOn(a))
	if _, ok := plan.Op.(*MergeUnion); !ok {
		t.Fatalf("root = %T, want merge-union riding the stored order:\n%s", plan.Op, plan.Format())
	}
	plan.Walk(func(p *core.Plan) {
		if _, ok := p.Op.(*Sort); ok {
			t.Fatalf("sort in a plan that should ride the clustering:\n%s", plan.Format())
		}
	})
}
