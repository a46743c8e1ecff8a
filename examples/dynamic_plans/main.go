// The dynamic_plans example demonstrates the requirement the paper
// states for the Volcano optimizer generator: "flexible cost models
// that permit generating dynamic plans for incompletely specified
// queries." The query's constant is a runtime parameter ($1); the
// optimizer cannot know its selectivity, so it optimizes under several
// selectivity assumptions and emits a choose-plan operator. At
// execution, the bound value selects the alternative.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

func main() {
	src := datagen.New(77)
	cat := src.Catalog(2)
	db := exec.FromData(cat, src.Rows(cat))

	sql := `SELECT R1.id, R1.jb, R2.v
	        FROM R1, R2
	        WHERE R1.jb = R2.jb AND R1.v < $1
	        ORDER BY R1.jb`
	st, err := sqlish.Parse(cat, sql)
	if err != nil {
		log.Fatal(err)
	}

	res, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic plan with %d alternatives (selectivity buckets %v):\n\n",
		res.Alternatives, res.Buckets)
	fmt.Print(res.Plan.Format())

	if cp, ok := res.Plan.Op.(*relopt.ChoosePlan); ok {
		fmt.Println("\nruntime choices:")
		for _, v := range []int64{10, 300, 900} {
			idx := cp.ChooseAlternative(v)
			rows, _, err := exec.RunParams(db, res.Plan, []int64{v})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  $1 = %3d → alternative %d (%s at root), %d rows\n",
				v, idx, res.Plan.Inputs[idx].Op.Name(), len(rows))
		}
	}
}
