package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// engineConfigs are the executor configurations the golden tests
// compare with the reference evaluator: the one build at a single-row,
// the default and an awkward odd batch size.
var engineConfigs = []struct {
	name string
	opts exec.Options
}{
	{"batch1", exec.Options{BatchSize: 1}},
	{"default", exec.Options{}},
	{"batch7", exec.Options{BatchSize: 7}},
}

// reference evaluates a query by definition and returns its result's
// fingerprint and row count.
func reference(t *testing.T, db *exec.DB, q *core.ExprTree) (string, int) {
	t.Helper()
	rows, schema, err := exec.Reference(db, q)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return exec.Fingerprint(exec.Canonical(rows, schema)), len(rows)
}

// TestEnginesAgreeRandomQueries runs randomized select-join queries
// through every engine configuration — and, for partitionable queries,
// through exchange plans at degrees 1, 2, and 4 — and requires the
// reference evaluator's result multiset from each.
func TestEnginesAgreeRandomQueries(t *testing.T) {
	cat, db, s := smallData(t, 46, 5)
	for trial := 0; trial < 12; trial++ {
		n := 2 + trial%4
		q := s.SelectJoinQuery(cat, n, datagen.ShapeRandom)
		plan := optimize(t, cat, q.Root, nil, relopt.DefaultConfig())

		golden, goldenRows := reference(t, db, q.Root)
		for _, ec := range engineConfigs {
			got, schema, err := exec.RunOpts(nil, db, plan, nil, ec.opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v\nplan:\n%s", trial, ec.name, err, plan.Format())
			}
			if exec.Fingerprint(exec.Canonical(got, schema)) != golden {
				t.Fatalf("trial %d: %s result differs from the reference (%d vs %d rows)\nplan:\n%s",
					trial, ec.name, len(got), goldenRows, plan.Format())
			}
		}

		for _, degree := range []int{1, 2, 4} {
			cfg := relopt.DefaultConfig()
			cfg.Parallel = true
			cfg.Degree = degree
			required := relopt.HashPartitioned(q.Joins[0][0], degree)
			parPlan, err := optimizeParallel(cat, q, required, cfg)
			if err != nil {
				continue // no parallel plan at this degree for this query
			}
			for _, workers := range []int{0, 2} {
				got, schema, err := exec.RunOpts(nil, db, parPlan, nil, exec.Options{ExchangeWorkers: workers})
				if err != nil {
					t.Fatalf("trial %d degree %d workers %d: %v\nplan:\n%s",
						trial, degree, workers, err, parPlan.Format())
				}
				if fp := exec.Fingerprint(exec.Canonical(got, schema)); fp != golden {
					t.Fatalf("trial %d: exchange degree %d workers %d differs from the reference (%d vs %d rows)\nplan:\n%s",
						trial, degree, workers, len(got), goldenRows, parPlan.Format())
				}
			}
		}
	}
}

// optimizeParallel optimizes under a parallel model, returning an error
// when the model finds no plan for the partitioning requirement.
func optimizeParallel(cat *rel.Catalog, q datagen.Query, required core.PhysProps, cfg relopt.Config) (*core.Plan, error) {
	opt := core.NewOptimizer(relopt.New(cat, cfg), nil)
	root := opt.InsertQuery(q.Root)
	plan, err := opt.Optimize(root, required)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("no plan")
	}
	return plan, nil
}

// TestEnginesAgreeOrderBy checks that a sort-requiring plan delivers the
// reference's rows in order under every engine configuration.
func TestEnginesAgreeOrderBy(t *testing.T) {
	cat, db, s := smallData(t, 47, 4)
	for trial := 0; trial < 8; trial++ {
		q := s.SelectJoinQuery(cat, 2+trial%3, datagen.ShapeChain)
		sortCol := q.Joins[0][0]
		plan := optimize(t, cat, q.Root, relopt.SortedOn(sortCol), relopt.DefaultConfig())

		golden, _ := reference(t, db, q.Root)
		for _, ec := range engineConfigs {
			got, schema, err := exec.RunOpts(nil, db, plan, nil, ec.opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, ec.name, err)
			}
			if !exec.SortedBy(got, []int{schema.Pos(sortCol)}) {
				t.Fatalf("trial %d: %s output not sorted on c%d\nplan:\n%s",
					trial, ec.name, sortCol, plan.Format())
			}
			if exec.Fingerprint(exec.Canonical(got, schema)) != golden {
				t.Fatalf("trial %d: %s result differs from the reference", trial, ec.name)
			}
		}
	}
}

// TestPlanEarlyCloseLeaksNoGoroutines builds parallel exchange plans,
// reads the first batch, abandons the iterator, and checks every
// exchange producer goroutine exits.
func TestPlanEarlyCloseLeaksNoGoroutines(t *testing.T) {
	cat, db, s := smallData(t, 48, 4)
	q := s.SelectJoinQuery(cat, 3, datagen.ShapeChain)
	cfg := relopt.DefaultConfig()
	cfg.Parallel = true
	cfg.Degree = 4
	required := relopt.HashPartitioned(q.Joins[0][0], 4)
	plan := optimize(t, cat, q.Root, required, cfg)

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		it, _, err := exec.BuildPlanOpts(nil, db, plan, nil, exec.Options{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if err := it.Open(); err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, ok, err := it.NextBatch(); err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	waitForGoroutines(t, before)
}

// TestPlanContextCancelStopsWorkers cancels the execution context while
// draining a parallel plan and checks the run fails fast and tears down
// its exchange workers.
func TestPlanContextCancelStopsWorkers(t *testing.T) {
	cat, db, s := smallData(t, 49, 4)
	q := s.SelectJoinQuery(cat, 3, datagen.ShapeChain)
	cfg := relopt.DefaultConfig()
	cfg.Parallel = true
	cfg.Degree = 4
	required := relopt.HashPartitioned(q.Joins[0][0], 4)
	plan := optimize(t, cat, q.Root, required, cfg)

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		it, _, err := exec.BuildPlanOpts(ctx, db, plan, nil, exec.Options{})
		if err != nil {
			cancel()
			t.Fatalf("build: %v", err)
		}
		if err := it.Open(); err != nil {
			cancel()
			t.Fatalf("open: %v", err)
		}
		cancel()
		// Drain until the cancellation surfaces; the producers check the
		// context once per batch, so a bounded number of buffered
		// batches may still arrive first.
		var sawErr error
		for {
			_, ok, err := it.NextBatch()
			if err != nil {
				sawErr = err
				break
			}
			if !ok {
				t.Fatal("iterator completed despite canceled context")
			}
		}
		if cerr := it.Close(); sawErr == nil && cerr == nil {
			t.Fatal("neither NextBatch nor Close reported the cancellation")
		}
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (with slack for runtime helpers), failing after two seconds.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", baseline, n, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
