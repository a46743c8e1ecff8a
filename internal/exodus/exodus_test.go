package exodus

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relopt"
)

func TestBaselineOptimizesSmallQuery(t *testing.T) {
	s := datagen.New(10)
	cat := s.Catalog(4)
	q := s.SelectJoinQuery(cat, 3, datagen.ShapeChain)

	opt := New(cat, Config{})
	best, cost, err := opt.Optimize(q.Root, 0)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if best == nil || cost.Total() <= 0 {
		t.Fatalf("best=%v cost=%v", best, cost)
	}
	st := opt.Stats()
	t.Logf("nodes=%d eq=%d transforms=%d reanalyses=%d cost=%s",
		st.Nodes, st.EqClasses, st.Transforms, st.Reanalyses, cost)
}

// TestBaselineNeverBeatsVolcano checks the dynamic-programming optimum:
// the baseline's greedy plan can never be cheaper than Volcano's
// (identical cost model and rule set), and the two should agree on very
// small queries, matching the paper's report of equal plan quality up to
// moderate complexity.
func TestBaselineNeverBeatsVolcano(t *testing.T) {
	s := datagen.New(11)
	cat := s.Catalog(6)
	for n := 2; n <= 5; n++ {
		for trial := 0; trial < 10; trial++ {
			q := s.SelectJoinQuery(cat, n, datagen.ShapeRandom)

			ex := New(cat, Config{Timeout: 30 * time.Second})
			_, exCost, err := ex.Optimize(q.Root, 0)
			if err != nil {
				t.Fatalf("n=%d trial=%d exodus: %v", n, trial, err)
			}

			model := relopt.New(cat, relopt.DefaultConfig())
			vo := core.NewOptimizer(model, nil)
			root := vo.InsertQuery(q.Root)
			plan, err := vo.Optimize(root, nil)
			if err != nil {
				t.Fatalf("n=%d trial=%d volcano: %v", n, trial, err)
			}
			voCost := plan.Cost.(relopt.Cost)

			if exCost.Less(voCost) {
				t.Errorf("n=%d trial=%d: EXODUS cost %v beats Volcano optimum %v",
					n, trial, exCost, voCost)
			}
		}
	}
}

func TestBaselineBudgetAbort(t *testing.T) {
	s := datagen.New(12)
	cat := s.Catalog(8)
	q := s.SelectJoinQuery(cat, 8, datagen.ShapeRandom)
	opt := New(cat, Config{MaxNodes: 200})
	_, _, err := opt.Optimize(q.Root, 0)
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
