// Root-level tests for the hot-path work: the parallel driver must
// produce exactly the serial engine's plans, and incremental move
// collection must be invisible in the relational model's results.
package repro

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relopt"
)

// TestParallelOptimizeMatchesSerial: the worker-pool driver returns, for
// every query, a plan with exactly the cost the serial engine finds —
// parallelism is across queries only and must not perturb the search.
func TestParallelOptimizeMatchesSerial(t *testing.T) {
	src := datagen.New(41)
	cat := src.Catalog(6)
	model := relopt.New(cat, relopt.DefaultConfig())

	var queries []datagen.Query
	for n := 2; n <= 6; n++ {
		for q := 0; q < 4; q++ {
			queries = append(queries, src.SelectJoinQuery(cat, n, datagen.ShapeRandom))
		}
	}

	serial := make([]float64, len(queries))
	for i, q := range queries {
		opt := core.NewOptimizer(model, nil)
		root := opt.InsertQuery(q.Root)
		plan, err := opt.Optimize(root, relopt.SortedOn(q.OrderBy))
		if err != nil || plan == nil {
			t.Fatalf("serial optimize %d: %v", i, err)
		}
		serial[i] = plan.Cost.(relopt.Cost).Total()
	}

	for _, workers := range []int{1, 4} {
		jobs := make([]core.ParallelJob, len(queries))
		for i := range jobs {
			q := queries[i]
			jobs[i] = core.ParallelJob{
				Model:    model,
				Build:    func(o *core.Optimizer) core.GroupID { return o.InsertQuery(q.Root) },
				Required: relopt.SortedOn(q.OrderBy),
			}
		}
		results := core.ParallelOptimize(jobs, workers)
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(results), len(jobs))
		}
		for i, r := range results {
			if r.Err != nil || r.Plan == nil {
				t.Fatalf("workers=%d query %d: plan=%v err=%v", workers, i, r.Plan, r.Err)
			}
			if got := r.Plan.Cost.(relopt.Cost).Total(); got != serial[i] {
				t.Errorf("workers=%d query %d: parallel cost %v != serial %v", workers, i, got, serial[i])
			}
			if r.Stats.GoalsOptimized == 0 {
				t.Errorf("workers=%d query %d: empty stats", workers, i)
			}
		}
	}
}

// TestParallelOptimizeCoalescesDuplicates: a batch of 50 tree-form jobs
// over 5 unique query shapes optimizes each shape exactly once; the
// other 45 results are shared copies marked Stats.Coalesced, with costs
// identical to their primaries. Run under -race this also proves the
// dedup pass and result fan-out are thread-safe.
func TestParallelOptimizeCoalescesDuplicates(t *testing.T) {
	src := datagen.New(53)
	cat := src.Catalog(5)
	model := relopt.New(cat, relopt.DefaultConfig())

	const shapes = 5
	const copies = 10
	queries := make([]datagen.Query, shapes)
	for s := range queries {
		queries[s] = src.SelectJoinQuery(cat, 2+s%4, datagen.ShapeRandom)
	}

	jobs := make([]core.ParallelJob, 0, shapes*copies)
	for c := 0; c < copies; c++ {
		for s := 0; s < shapes; s++ {
			jobs = append(jobs, core.ParallelJob{
				Model:    model,
				Tree:     queries[s].Root,
				Required: relopt.SortedOn(queries[s].OrderBy),
			})
		}
	}

	results := core.ParallelOptimize(jobs, 8)
	if len(results) != shapes*copies {
		t.Fatalf("%d results for %d jobs", len(results), shapes*copies)
	}
	coalesced := 0
	shapeCost := map[int]float64{}
	for i, r := range results {
		if r.Err != nil || r.Plan == nil {
			t.Fatalf("job %d: plan=%v err=%v", i, r.Plan, r.Err)
		}
		if r.Stats.Coalesced {
			coalesced++
		}
		s := i % shapes
		cost := r.Plan.Cost.(relopt.Cost).Total()
		if want, ok := shapeCost[s]; ok {
			if cost != want {
				t.Errorf("job %d: coalesced cost %v != shape cost %v", i, cost, want)
			}
		} else {
			shapeCost[s] = cost
		}
	}
	want := shapes * (copies - 1)
	if coalesced != want {
		t.Fatalf("coalesced %d of %d jobs, want exactly %d", coalesced, len(jobs), want)
	}
}

// TestRelOptIncrementalMatchesFromScratch: on the relational model —
// multi-level rules, enforcers, partitioning — incremental move
// collection finds exactly the plans of from-scratch re-matching, with
// fewer implementation-rule match attempts.
func TestRelOptIncrementalMatchesFromScratch(t *testing.T) {
	src := datagen.New(97)
	cat := src.Catalog(6)
	model := relopt.New(cat, relopt.DefaultConfig())

	var incMatches, scrMatches int
	for n := 2; n <= 6; n++ {
		for q := 0; q < 5; q++ {
			query := src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
			name := fmt.Sprintf("rels=%d q=%d", n, q)

			inc := core.NewOptimizer(model, nil)
			pi, err := inc.Optimize(inc.InsertQuery(query.Root), relopt.SortedOn(query.OrderBy))
			if err != nil || pi == nil {
				t.Fatalf("%s incremental: %v", name, err)
			}
			scr := core.NewOptimizer(model, &core.Options{Search: core.SearchOptions{NoIncremental: true}})
			ps, err := scr.Optimize(scr.InsertQuery(query.Root), relopt.SortedOn(query.OrderBy))
			if err != nil || ps == nil {
				t.Fatalf("%s from-scratch: %v", name, err)
			}
			ci := pi.Cost.(relopt.Cost).Total()
			cs := ps.Cost.(relopt.Cost).Total()
			if ci != cs {
				t.Errorf("%s: incremental cost %v != from-scratch %v", name, ci, cs)
			}
			if inc.Stats().ConsistencyViolations != 0 || scr.Stats().ConsistencyViolations != 0 {
				t.Errorf("%s: consistency violations", name)
			}
			incMatches += inc.Stats().MatchCalls
			scrMatches += scr.Stats().MatchCalls
		}
	}
	if incMatches >= scrMatches {
		t.Fatalf("incremental match calls %d not below from-scratch %d", incMatches, scrMatches)
	}
	t.Logf("match calls: incremental=%d from-scratch=%d (%.1f%%)",
		incMatches, scrMatches, 100*float64(incMatches)/float64(scrMatches))
}

// TestParallelOptimizeBudgetIsolation: budgets are per job, not per
// pool. One job with a one-step budget must degrade (or fail) alone;
// its unbudgeted siblings must all complete with optimal plans, whether
// or not they share the pool's workers with the starved job.
func TestParallelOptimizeBudgetIsolation(t *testing.T) {
	src := datagen.New(47)
	cat := src.Catalog(5)
	model := relopt.New(cat, relopt.DefaultConfig())

	var queries []datagen.Query
	for q := 0; q < 6; q++ {
		queries = append(queries, src.SelectJoinQuery(cat, 4, datagen.ShapeRandom))
	}

	serial := make([]float64, len(queries))
	for i, q := range queries {
		opt := core.NewOptimizer(model, nil)
		plan, err := opt.Optimize(opt.InsertQuery(q.Root), relopt.SortedOn(q.OrderBy))
		if err != nil || plan == nil {
			t.Fatalf("serial optimize %d: %v", i, err)
		}
		serial[i] = plan.Cost.(relopt.Cost).Total()
	}

	starved := &core.Options{}
	starved.Budget.MaxSteps = 1
	for _, workers := range []int{1, 4} {
		jobs := make([]core.ParallelJob, len(queries))
		for i := range jobs {
			q := queries[i]
			jobs[i] = core.ParallelJob{
				Model:    model,
				Tree:     q.Root,
				Required: relopt.SortedOn(q.OrderBy),
			}
		}
		jobs[0].Options = starved
		results := core.ParallelOptimize(jobs, workers)
		if !errors.Is(results[0].Err, core.ErrBudget) {
			t.Errorf("workers=%d: starved job err = %v, want ErrBudget", workers, results[0].Err)
		}
		for i := 1; i < len(results); i++ {
			r := results[i]
			if r.Err != nil || r.Plan == nil {
				t.Fatalf("workers=%d sibling %d: plan=%v err=%v — sibling caught the starved job's budget",
					workers, i, r.Plan, r.Err)
			}
			if got := r.Plan.Cost.(relopt.Cost).Total(); got != serial[i] {
				t.Errorf("workers=%d sibling %d: cost %v != serial %v", workers, i, got, serial[i])
			}
		}
	}
}

// TestSharedMemoBatchMatchesIndependent: a ShareMemo batch over
// overlapping relational queries returns, per query, the independently
// optimized cost to the last bit, and reports the sharing it found.
func TestSharedMemoBatchMatchesIndependent(t *testing.T) {
	src := datagen.New(53)
	cat := src.Catalog(4)
	model := relopt.New(cat, relopt.DefaultConfig())

	var queries []datagen.Query
	for q := 0; q < 4; q++ {
		queries = append(queries, src.SelectJoinQuery(cat, 3, datagen.ShapeChain))
	}
	// Duplicate one query verbatim so at least two roots collapse.
	queries = append(queries, queries[0])

	serial := make([]uint64, len(queries))
	for i, q := range queries {
		opt := core.NewOptimizer(model, nil)
		plan, err := opt.Optimize(opt.InsertQuery(q.Root), relopt.SortedOn(q.OrderBy))
		if err != nil || plan == nil {
			t.Fatalf("serial optimize %d: %v", i, err)
		}
		serial[i] = math.Float64bits(plan.Cost.(relopt.Cost).Total())
	}

	opts := &core.Options{}
	opts.Search.ShareMemo = true
	jobs := make([]core.ParallelJob, len(queries))
	for i := range jobs {
		q := queries[i]
		jobs[i] = core.ParallelJob{
			Model:    model,
			Options:  opts,
			Tree:     q.Root,
			Required: relopt.SortedOn(q.OrderBy),
		}
	}
	results := core.ParallelOptimize(jobs, 1)
	for i, r := range results {
		if r.Err != nil || r.Plan == nil {
			t.Fatalf("query %d: plan=%v err=%v", i, r.Plan, r.Err)
		}
		if got := math.Float64bits(r.Plan.Cost.(relopt.Cost).Total()); got != serial[i] {
			t.Errorf("query %d: shared-memo cost %v (bits %#x) != serial bits %#x", i, r.Plan.Cost, got, serial[i])
		}
		if r.Stats.SharedGroups == 0 {
			t.Errorf("query %d: batch with a duplicate query reports no shared groups", i)
		}
	}
}
