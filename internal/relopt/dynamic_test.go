package relopt_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
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
	res, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required, nil)
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
	res, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required, nil)
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
	res, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required,
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
	if _, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required, nil); err == nil {
		t.Fatal("expected error for unparameterized query")
	}
}

// TestParamSelectivityAssumption: the optimizer prices parameterized
// predicates with its model's assumption, the one a dynamic sweep sets
// per bucket.
func TestParamSelectivityAssumption(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	costUnder := func(sel float64) float64 {
		opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()).WithParamSel(sel), nil)
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

// TestDynamicConcurrentSweeps: sweeps running at once on one model, as
// a server's parameterized plan-cache misses do, each produce the plan a
// serial sweep does; the assumption is per sweep, not the model's.
func TestDynamicConcurrentSweeps(t *testing.T) {
	cat, _, st := dynamicFixture(t)
	m := relopt.New(cat, relopt.DefaultConfig())
	other, err := sqlish.Parse(cat, "SELECT R1.id, R2.jb FROM R1, R2 WHERE R1.ja = R2.ja AND R2.v >= $1")
	if err != nil {
		t.Fatal(err)
	}
	stmts := []*sqlish.Statement{st, other}
	want := make([]string, len(stmts))
	for i, s := range stmts {
		res, err := relopt.OptimizeDynamicCtx(context.Background(), m, s.Tree, s.Required, nil)
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
			res, err := relopt.OptimizeDynamicCtx(context.Background(), m, s.Tree, s.Required, nil)
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
	res, err := relopt.OptimizeDynamicCtx(ctx, relopt.New(cat, relopt.DefaultConfig()), st.Tree, st.Required, nil)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want core.ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled sweep returned a plan:\n%s", res.Plan.Format())
	}
}

// paramChainSQL draws a parameterized statement of the point-churn
// shapes: 2–4 consecutive tables of six chained on ja = id, a constant
// selection on the last table and the parameter on the first, under a
// plain projection, an ORDER BY or a GROUP BY. Length and shape go round
// in turn; the first table and the constant are drawn.
func paramChainSQL(rng *rand.Rand, i int) string {
	k := 2 + i%3
	first := 1 + rng.Intn(6-k+1)
	t := func(j int) string { return "R" + strconv.Itoa(first+j) }
	from, where := t(0), ""
	for j := 1; j < k; j++ {
		from += ", " + t(j)
		where += fmt.Sprintf("%s.ja = %s.id AND ", t(j-1), t(j))
	}
	where += fmt.Sprintf("%s.v < %d AND %s.v < $1", t(k-1), 100+rng.Intn(900), t(0))
	switch i / 3 % 3 {
	case 0:
		return fmt.Sprintf("SELECT %s.id FROM %s WHERE %s", t(0), from, where)
	case 1:
		return fmt.Sprintf("SELECT %s.id, %s.v FROM %s WHERE %s ORDER BY %s.id", t(0), t(0), from, where, t(0))
	}
	return fmt.Sprintf("SELECT %s.ja, COUNT(*) FROM %s WHERE %s GROUP BY %s.ja", t(0), from, where, t(0))
}

// TestRederiveMatchesFreshBuckets: a sweep that inserts the query once
// and calls Rederive before every later bucket — what OptimizeDynamicCtx
// does — costs every bucket bit for bit as a fresh per-bucket
// optimization does, keeps the memo's invariants after every bucket, and
// keeps the classes the parameter does not reach. OptimizeDynamicCtx's
// alternatives carry those same costs.
func TestRederiveMatchesFreshBuckets(t *testing.T) {
	buckets := []float64{0.01, 0.1, 0.5, 0.9}
	cfg := relopt.DefaultConfig()
	kept, live := 0, 0
	for _, seed := range []int64{1993, 1994, 20260925} {
		cat := datagen.New(seed).Catalog(6)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 36; i++ {
			sql := paramChainSQL(rng, i)
			st, err := sqlish.Parse(cat, sql)
			if err != nil {
				t.Fatal(err)
			}
			base := relopt.New(cat, cfg)
			var opt *core.Optimizer
			var root core.GroupID
			fresh := map[relopt.Cost]bool{}
			for _, sel := range buckets {
				if m := base.WithParamSel(sel); opt == nil {
					opt = core.NewOptimizer(m, nil)
					root = opt.InsertQuery(st.Tree)
				} else {
					kept += opt.Rederive(m)
					opt.Memo().Groups(func(*core.Group) { live++ })
				}
				got, err := opt.Optimize(root, st.Required)
				coretest.CheckMemo(t, opt)
				if err != nil || got == nil {
					t.Fatalf("%s at %g: %v", sql, sel, err)
				}
				ref := core.NewOptimizer(relopt.New(cat, cfg).WithParamSel(sel), nil)
				want, err := ref.Optimize(ref.InsertQuery(st.Tree), st.Required)
				if err != nil || want == nil {
					t.Fatalf("%s at %g, fresh: %v", sql, sel, err)
				}
				if got.Cost != want.Cost {
					t.Errorf("%s at selectivity %g: cost %s after Rederive, %s fresh", sql, sel, got.Cost, want.Cost)
				}
				fresh[want.Cost.(relopt.Cost)] = true
			}
			res, err := relopt.OptimizeDynamicCtx(context.Background(), relopt.New(cat, cfg), st.Tree, st.Required, buckets)
			if err != nil {
				t.Fatal(err)
			}
			alts := []*core.Plan{res.Plan}
			if res.Alternatives > 1 {
				alts = res.Plan.Inputs
			}
			for _, p := range alts {
				if c := p.Cost.(relopt.Cost); !fresh[c] {
					t.Errorf("%s: dynamic alternative costs %s, no fresh bucket does", sql, c)
				}
			}
		}
	}
	if kept == 0 || kept == live {
		t.Errorf("Rederive kept %d of %d classes; want some but not all", kept, live)
	}
	t.Logf("Rederive kept %d of %d classes (%.0f%%)", kept, live, 100*float64(kept)/float64(live))
}
