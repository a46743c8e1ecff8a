package minirel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/datagen"
	"repro/internal/gen/minirel"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// TestGeneratedOptimizerMatchesHandWritten: the generated minirel
// optimizer and the hand-maintained relopt configuration explore the
// same space with the same cost model for select-join queries, so their
// optimal plan costs must be identical, and both must reach
// transformation fixpoint.
func TestGeneratedOptimizerMatchesHandWritten(t *testing.T) {
	src := datagen.New(21)
	cat := src.Catalog(6)
	sup := minirel.NewSupport(cat)
	for n := 2; n <= 5; n++ {
		for trial := 0; trial < 8; trial++ {
			q := src.SelectJoinQuery(cat, n, datagen.ShapeRandom)

			genOpt := core.NewOptimizer(minirel.New(sup), nil)
			genRoot := genOpt.InsertQuery(q.Root)
			genPlan, err := genOpt.Optimize(genRoot, relopt.SortedOn(q.OrderBy))
			if err != nil || genPlan == nil {
				t.Fatalf("n=%d trial=%d generated optimizer: plan=%v err=%v", n, trial, genPlan, err)
			}

			handOpt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
			handRoot := handOpt.InsertQuery(q.Root)
			handPlan, err := handOpt.Optimize(handRoot, relopt.SortedOn(q.OrderBy))
			if err != nil || handPlan == nil {
				t.Fatalf("n=%d trial=%d hand-written optimizer: plan=%v err=%v", n, trial, handPlan, err)
			}

			if g, h := genPlan.Cost.(relopt.Cost), handPlan.Cost.(relopt.Cost); g != h {
				t.Errorf("n=%d trial=%d: generated cost %v != hand-written %v\ngenerated:\n%s\nhand-written:\n%s",
					n, trial, g, h, genPlan.Format(), handPlan.Format())
			}
			for _, opt := range []*core.Optimizer{genOpt, handOpt} {
				coretest.CheckMemo(t, opt)
				coretest.CheckFixpoint(t, opt)
			}
			if genOpt.Stats().ConsistencyViolations != 0 {
				t.Errorf("n=%d trial=%d: consistency violations in generated optimizer", n, trial)
			}
		}
	}
}

// TestGeneratedOptimizerKinds: the generated kinds must agree with the
// hand-assigned kinds in internal/rel, since both optimizers consume the
// same logical operators.
func TestGeneratedOptimizerKinds(t *testing.T) {
	if minirel.KindGET != rel.KindGet || minirel.KindSELECT != rel.KindSelect || minirel.KindJOIN != rel.KindJoin {
		t.Fatalf("generated kinds (GET=%d SELECT=%d JOIN=%d) disagree with rel (GET=%d SELECT=%d JOIN=%d)",
			minirel.KindGET, minirel.KindSELECT, minirel.KindJOIN,
			rel.KindGet, rel.KindSelect, rel.KindJoin)
	}
}
