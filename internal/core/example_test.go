package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Example optimizes a query in the toy data model, showing the
// model-independent engine API: insert the logical expression, ask for
// required physical properties, receive the cheapest plan.
func Example() {
	opt := core.NewOptimizer(&toyModel{}, nil)
	root := opt.InsertQuery(pair(leaf("left"), leaf("right")))

	plan, err := opt.Optimize(root, toyColor(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(plan)
	fmt.Println("cost:", plan.Cost)
	// Output:
	// paint(plain-pair(toy-scan, toy-scan))
	// cost: 8.0
}

// ExampleOptimizer_ExploreCtx performs pure logical exploration — the
// query-rewrite-style extreme the paper leaves as a choice: transforming
// expressions without any algorithm selection or cost analysis.
func ExampleOptimizer_ExploreCtx() {
	opt := core.NewOptimizer(&toyModel{}, nil)
	root := opt.InsertQuery(pair(leaf("a"), leaf("b")))

	if err := opt.ExploreCtx(context.Background(), root); err != nil {
		panic(err)
	}
	fmt.Println("equivalent expressions:", len(opt.Memo().Group(root).Exprs()))
	// Output:
	// equivalent expressions: 2
}
