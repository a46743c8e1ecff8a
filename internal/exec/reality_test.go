package exec_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// TestPropertyDirectedPlansRunFaster closes the loop between the cost
// model and reality: for a fan-out join whose output must be ordered,
// the property-directed plan (merge-join riding sorted small inputs)
// must actually execute faster than the glue-mode plan (hash join, then
// sorting the huge result) — not merely be estimated cheaper.
func TestPropertyDirectedPlansRunFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	cat := rel.NewCatalog()
	r1 := cat.AddTable("r1", 4000, 64)
	r1id := cat.AddColumn(r1, "id", 4000, 1, 4000)
	r1k := cat.AddColumn(r1, "k", 40, 1, 40)
	r2 := cat.AddTable("r2", 4000, 64)
	r2k := cat.AddColumn(r2, "k", 40, 1, 40)
	r2v := cat.AddColumn(r2, "v", 1000, 0, 999)

	data := map[string][][]int64{}
	for name, cols := range map[string][]rel.ColID{"r1": {r1id, r1k}, "r2": {r2k, r2v}} {
		rows := make([][]int64, 4000)
		for i := range rows {
			row := make([]int64, len(cols))
			for j := range cols {
				switch {
				case name == "r1" && j == 0:
					row[j] = int64(i + 1)
				case j == len(cols)-1 && name == "r2":
					row[j] = int64((i * 37) % 1000)
				default:
					row[j] = int64(i%40) + 1
				}
			}
			rows[i] = row
		}
		data[name] = rows
	}
	db := exec.FromData(cat, data)

	tree := core.Node(&rel.Project{Cols: []rel.ColID{r1id, r1k, r2v}},
		core.Node(rel.NewJoin(r1k, r2k),
			core.Node(&rel.Get{Tab: r1}),
			core.Node(&rel.Get{Tab: r2})))
	required := relopt.SortedOn(r1k)

	optimize := func(opts *core.Options) *core.Plan {
		opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), opts)
		root := opt.InsertQuery(tree)
		plan, err := opt.Optimize(root, required)
		if err != nil || plan == nil {
			t.Fatalf("optimize: %v", err)
		}
		return plan
	}
	directed := optimize(nil)
	glued := optimize(&core.Options{Search: core.SearchOptions{GlueMode: true}})
	if !directed.Cost.(relopt.Cost).Less(glued.Cost.(relopt.Cost)) {
		t.Skip("plans coincide under this cost model; nothing to compare")
	}

	// The fastest of several runs per plan, the plans taking turns. With
	// the sort a kernel the glue plan's penalty is a factor of two, not
	// twenty, and each run allocates its 400 000 result rows: whether a
	// collection (or the sweeping it leaves behind) lands in one plan's
	// runs or the other's would decide the comparison. So the collector
	// runs between the timed runs, not during them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(plan *core.Plan, best *time.Duration) int {
		runtime.GC()
		start := time.Now()
		out, schema, err := exec.Run(db, plan)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !exec.SortedBy(out, []int{schema.Pos(r1k)}) {
			t.Fatal("output not ordered")
		}
		if elapsed < *best {
			*best = elapsed
		}
		return len(out)
	}
	dTime, gTime := time.Hour, time.Hour
	var dRows, gRows int
	for trial := 0; trial < 5; trial++ {
		dRows = run(directed, &dTime)
		gRows = run(glued, &gTime)
	}
	if dRows != gRows {
		t.Fatalf("plans disagree on the result: %d vs %d rows", dRows, gRows)
	}
	t.Logf("directed %v vs glued %v over %d rows", dTime, gTime, dRows)
	if dTime >= gTime {
		t.Errorf("property-directed plan (%v) not faster in reality than glue plan (%v)", dTime, gTime)
	}
}
