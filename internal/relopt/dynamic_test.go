package relopt_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

// dynamicFixture: two tables joined on ja, with a parameterized range
// predicate on R1.v. Low selectivity favors filtering early and joining
// the small side differently than high selectivity does.
func dynamicFixture(t *testing.T) (*rel.Catalog, *exec.DB, *sqlish.Statement) {
	t.Helper()
	src := datagen.New(77)
	cat := src.Catalog(2)
	db := exec.FromData(cat, src.Rows(cat))
	st, err := sqlish.Parse(cat,
		"SELECT R1.id, R1.jb, R2.v FROM R1, R2 WHERE R1.jb = R2.jb AND R1.v < $1 ORDER BY R1.jb")
	if err != nil {
		t.Fatal(err)
	}
	return cat, db, st
}

func TestDynamicPlanAlternatives(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	res, err := relopt.OptimizeDynamicCtx(context.Background(), cat, relopt.DefaultConfig(), st.Tree, st.Required, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alternatives < 2 {
		t.Fatalf("expected multiple alternatives across selectivity regions, got %d\n%s",
			res.Alternatives, res.Plan.Format())
	}
	cp, ok := res.Plan.Op.(*relopt.ChoosePlan)
	if !ok {
		t.Fatalf("root is %T, want ChoosePlan", res.Plan.Op)
	}
	if len(cp.Cutoffs) != len(res.Plan.Inputs) {
		t.Fatalf("cutoffs %d != alternatives %d", len(cp.Cutoffs), len(res.Plan.Inputs))
	}
	if cp.Cutoffs[len(cp.Cutoffs)-1] != 1 {
		t.Fatalf("last cutoff %f, want 1", cp.Cutoffs[len(cp.Cutoffs)-1])
	}
	// The runtime choice must be monotone in the parameter (higher
	// value ⇒ higher selectivity for a < predicate ⇒ same or later
	// region).
	prev := -1
	for v := int64(0); v <= 1000; v += 100 {
		idx := cp.ChooseAlternative(v)
		if idx < prev {
			t.Fatalf("alternative index decreased: %d after %d at value %d", idx, prev, v)
		}
		prev = idx
	}
}

// TestDynamicPlanExecutesCorrectly: for several parameter bindings, the
// dynamic plan's result equals directly optimizing and running the
// fully-specified query.
func TestDynamicPlanExecutesCorrectly(t *testing.T) {
	cat, db, st := dynamicFixture(t)
	res, err := relopt.OptimizeDynamicCtx(context.Background(), cat, relopt.DefaultConfig(), st.Tree, st.Required, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{5, 120, 500, 999} {
		got, gotSchema, err := exec.RunParams(db, res.Plan, []int64{v})
		if err != nil {
			t.Fatalf("v=%d run dynamic: %v", v, err)
		}

		// Oracle: substitute the value and optimize statically.
		bound := bindParam(t, cat, v)
		opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
		root := opt.InsertQuery(bound.Tree)
		plan, err := opt.Optimize(root, bound.Required)
		coretest.CheckMemo(t, opt)
		if err != nil || plan == nil {
			t.Fatalf("v=%d static optimize: %v", v, err)
		}
		want, wantSchema, err := exec.Run(db, plan)
		if err != nil {
			t.Fatalf("v=%d run static: %v", v, err)
		}
		if exec.Fingerprint(exec.Canonical(got, gotSchema)) !=
			exec.Fingerprint(exec.Canonical(want, wantSchema)) {
			t.Fatalf("v=%d: dynamic result (%d rows) != static result (%d rows)",
				v, len(got), len(want))
		}
	}
}

func bindParam(t *testing.T, cat *rel.Catalog, v int64) *sqlish.Statement {
	t.Helper()
	st, err := sqlish.Parse(cat,
		"SELECT R1.id, R1.jb, R2.v FROM R1, R2 WHERE R1.jb = R2.jb AND R1.v < "+itoa(v)+" ORDER BY R1.jb")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestDynamicSinglePlanCollapses: when every selectivity assumption
// picks the same plan, no ChoosePlan node is emitted.
func TestDynamicSinglePlanCollapses(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	res, err := relopt.OptimizeDynamicCtx(context.Background(), cat, relopt.DefaultConfig(), st.Tree, st.Required,
		[]float64{0.4, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alternatives == 1 {
		if _, ok := res.Plan.Op.(*relopt.ChoosePlan); ok {
			t.Fatal("single alternative still wrapped in ChoosePlan")
		}
	}
}

// TestDynamicRequiresParam: a fully specified query is rejected.
func TestDynamicRequiresParam(t *testing.T) {
	cat, _, _ := dynamicFixture(t)
	st, err := sqlish.Parse(cat, "SELECT id FROM R1 WHERE v < 10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relopt.OptimizeDynamicCtx(context.Background(), cat, relopt.DefaultConfig(), st.Tree, st.Required, nil); err == nil {
		t.Fatal("expected error for unparameterized query")
	}
}

// TestParamSelectivityAssumption: the optimizer prices parameterized
// predicates with its model's assumption, the one a dynamic sweep sets
// per bucket.
func TestParamSelectivityAssumption(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	costUnder := func(sel float64) float64 {
		opt := core.NewOptimizer(relopt.NewWithParamSel(cat, relopt.DefaultConfig(), sel), nil)
		root := opt.InsertQuery(st.Tree)
		plan, err := opt.Optimize(root, st.Required)
		coretest.CheckMemo(t, opt)
		if err != nil || plan == nil {
			t.Fatalf("optimize: %v", err)
		}
		return plan.Cost.(relopt.Cost).Total()
	}
	low, high := costUnder(0.01), costUnder(0.9)
	if low >= high {
		t.Fatalf("estimated cost should grow with assumed selectivity: %.2f vs %.2f", low, high)
	}
}

// TestDynamicConcurrentSweeps: sweeps running at once on one catalog, as
// a server's parameterized plan-cache misses do, each produce the plan a
// serial sweep does; the assumption is per sweep, not the catalog's.
func TestDynamicConcurrentSweeps(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	other, err := sqlish.Parse(cat, "SELECT R1.id, R2.jb FROM R1, R2 WHERE R1.ja = R2.ja AND R2.v >= $1")
	if err != nil {
		t.Fatal(err)
	}
	stmts := []*sqlish.Statement{st, other}
	want := make([]string, len(stmts))
	for i, s := range stmts {
		res, err := relopt.OptimizeDynamicCtx(context.Background(), cat, relopt.DefaultConfig(), s.Tree, s.Required, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Plan.Format()
	}
	const rounds = 4
	got := make([]string, 2*rounds)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := stmts[g%2]
			res, err := relopt.OptimizeDynamicCtx(context.Background(), cat, relopt.DefaultConfig(), s.Tree, s.Required, nil)
			if errs[g] = err; err == nil {
				got[g] = res.Plan.Format()
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("sweep %d: %v", g, errs[g])
		}
		if got[g] != want[g%2] {
			t.Errorf("sweep %d differs from the serial sweep:\n%s\nwant\n%s", g, got[g], want[g%2])
		}
	}
}

// TestDynamicHonoursContext: a canceled context stops the sweep at its
// first bucket with the typed stop error.
func TestDynamicHonoursContext(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := relopt.OptimizeDynamicCtx(ctx, cat, relopt.DefaultConfig(), st.Tree, st.Required, nil)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want core.ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled sweep returned a plan:\n%s", res.Plan.Format())
	}
}
