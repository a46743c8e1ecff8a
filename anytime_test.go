// Root-level tests for anytime optimization on the relational model: a
// canceled or budget-stopped search must degrade to a complete,
// consistency-checked plan with a typed budget error — never a bare nil
// — and budgets that are never hit must be invisible in the results.
package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relopt"
)

// checkDegraded asserts the anytime contract on a budget-stopped result.
func checkDegraded(t *testing.T, name string, plan *core.Plan, err error, required core.PhysProps) {
	t.Helper()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("%s: err = %v, want a budget error", name, err)
	}
	if plan == nil {
		t.Fatalf("%s: budget-stopped optimization returned bare nil plan", name)
	}
	if required != nil && (plan.Delivered == nil || !plan.Delivered.Covers(required)) {
		t.Fatalf("%s: degraded plan delivers %v, required %v", name, plan.Delivered, required)
	}
	plan.Walk(func(p *core.Plan) {
		if p.Op == nil || p.Cost == nil {
			t.Fatalf("%s: degraded plan is incomplete: %s", name, plan.Format())
		}
	})
}

// TestAnytimeCancellation: canceling an 8-relation optimization — before
// it starts or mid-search — returns promptly with a complete plan and
// ErrCanceled, never a bare nil.
func TestAnytimeCancellation(t *testing.T) {
	src := datagen.New(7)
	cat := src.Catalog(8)
	model := relopt.New(cat, relopt.DefaultConfig())
	query := src.SelectJoinQuery(cat, 8, datagen.ShapeRandom)
	required := relopt.SortedOn(query.OrderBy)

	// Pre-canceled context: the stop arrives before the first move.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := core.NewOptimizer(model, nil)
	start := time.Now()
	plan, err := opt.OptimizeCtx(ctx, opt.InsertQuery(query.Root), required)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("pre-canceled optimization took %v, want <50ms", d)
	}
	checkDegraded(t, "pre-canceled", plan, err, required)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled: err = %v, want to match context.Canceled", err)
	}
	if sr := opt.Stats().StopReason; sr == nil || !errors.Is(sr, core.ErrBudget) {
		t.Errorf("pre-canceled: StopReason = %v", sr)
	}
	if !opt.Stats().AnytimeFallback {
		t.Error("pre-canceled: AnytimeFallback not recorded")
	}

	// Mid-search cancellation: the cancel fires from a tracer callback —
	// synchronously, deep inside the search — so it deterministically
	// lands mid-flight, and the search must notice it within 50ms.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	tr := &cancelAfterTracer{n: 500, cancel: cancel2}
	opt2 := core.NewOptimizer(model, &core.Options{
		Search: core.SearchOptions{NoPruning: true},
		Trace:  core.TraceOptions{Tracer: tr},
	})
	root := opt2.InsertQuery(query.Root)
	plan2, err2 := opt2.OptimizeCtx(ctx2, root, required)
	returned := time.Now()
	if err2 == nil {
		if tr.seen >= tr.n {
			t.Fatal("mid-search cancel was ignored")
		}
		t.Skipf("search emitted only %d trace events; mid-search cancel has no room", tr.seen)
	}
	checkDegraded(t, "mid-search", plan2, err2, required)
	if !errors.Is(err2, context.Canceled) {
		t.Errorf("mid-search: err = %v, want to match context.Canceled", err2)
	}
	if d := returned.Sub(tr.canceledAt); d > 50*time.Millisecond {
		t.Errorf("mid-search cancel honored after %v, want <50ms", d)
	}
}

// cancelAfterTracer cancels a context from the nth trace event — a
// synchronous hook inside the innermost search loops, guaranteeing the
// cancellation arrives while the search is running.
type cancelAfterTracer struct {
	n          int
	seen       int
	cancel     context.CancelFunc
	canceledAt time.Time
}

func (c *cancelAfterTracer) Trace(core.TraceEvent) {
	c.seen++
	if c.seen == c.n {
		c.canceledAt = time.Now()
		c.cancel()
	}
}

// TestAnytimeStepBudget: guided searches stopped by shrinking step
// budgets still return complete plans that cost no more than the
// materialized seed floor and no less than the true optimum.
func TestAnytimeStepBudget(t *testing.T) {
	src := datagen.New(113)
	cat := src.Catalog(6)
	model := relopt.New(cat, relopt.DefaultConfig())

	for q := 0; q < 4; q++ {
		query := src.SelectJoinQuery(cat, 6, datagen.ShapeRandom)
		required := relopt.SortedOn(query.OrderBy)

		ref := core.NewOptimizer(model, nil)
		optPlan, err := ref.Optimize(ref.InsertQuery(query.Root), required)
		if err != nil || optPlan == nil {
			t.Fatalf("q=%d reference: %v", q, err)
		}
		optimal := optPlan.Cost.(relopt.Cost).Total()

		for _, steps := range []int{5, 50, 500} {
			name := fmt.Sprintf("q=%d steps=%d", q, steps)
			o := core.NewOptimizer(model, &core.Options{
				Guidance: core.GuidanceOptions{SeedPlanner: model.SeedPlanner()},
				Budget:   core.Budget{MaxSteps: steps},
			})
			plan, err := o.Optimize(o.InsertQuery(query.Root), required)
			if err == nil {
				// The budget was never hit: the result must be optimal.
				if got := plan.Cost.(relopt.Cost).Total(); got != optimal {
					t.Errorf("%s: completed cost %v != optimal %v", name, got, optimal)
				}
				continue
			}
			if !errors.Is(err, core.ErrStepBudget) {
				t.Fatalf("%s: err = %v, want ErrStepBudget", name, err)
			}
			checkDegraded(t, name, plan, err, required)
			got := plan.Cost.(relopt.Cost).Total()
			if got < optimal {
				t.Errorf("%s: degraded cost %v below optimum %v", name, got, optimal)
			}
			st := o.Stats()
			if floor, ok := st.SeedFloorCost.(relopt.Cost); ok && got > floor.Total() {
				t.Errorf("%s: degraded cost %v above the seed floor %v", name, got, floor.Total())
			}
			if st.StopReason == nil {
				t.Errorf("%s: StopReason not set", name)
			}
		}
	}
}

// TestBudgetsNeverHitIdentical: a run under generous budgets and a
// cancelable context that never fires is indistinguishable from the
// classic engine — identical plan costs and identical search counters.
func TestBudgetsNeverHitIdentical(t *testing.T) {
	src := datagen.New(59)
	cat := src.Catalog(6)
	model := relopt.New(cat, relopt.DefaultConfig())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	generous := core.Budget{Timeout: time.Hour, MaxSteps: 1 << 30, MaxMemoBytes: 1 << 40}

	for n := 2; n <= 6; n++ {
		for q := 0; q < 3; q++ {
			query := src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
			required := relopt.SortedOn(query.OrderBy)
			name := fmt.Sprintf("rels=%d q=%d", n, q)

			plain := core.NewOptimizer(model, nil)
			pp, err := plain.Optimize(plain.InsertQuery(query.Root), required)
			if err != nil || pp == nil {
				t.Fatalf("%s plain: %v", name, err)
			}

			budgeted := core.NewOptimizer(model, &core.Options{Budget: generous})
			pb, err := budgeted.OptimizeCtx(ctx, budgeted.InsertQuery(query.Root), required)
			if err != nil || pb == nil {
				t.Fatalf("%s budgeted: %v", name, err)
			}

			if cp, cb := pp.Cost.(relopt.Cost).Total(), pb.Cost.(relopt.Cost).Total(); cp != cb {
				t.Errorf("%s: budgeted cost %v != plain %v", name, cb, cp)
			}
			ps, bs := plain.Stats(), budgeted.Stats()
			if ps.MatchCalls != bs.MatchCalls || ps.GoalsOptimized != bs.GoalsOptimized ||
				ps.Steps() != bs.Steps() || ps.Exprs != bs.Exprs {
				t.Errorf("%s: search counters diverge under an unhit budget:\nplain:    match=%d goals=%d steps=%d exprs=%d\nbudgeted: match=%d goals=%d steps=%d exprs=%d",
					name, ps.MatchCalls, ps.GoalsOptimized, ps.Steps(), ps.Exprs,
					bs.MatchCalls, bs.GoalsOptimized, bs.Steps(), bs.Exprs)
			}
			if bs.StopReason != nil || bs.AnytimeFallback {
				t.Errorf("%s: unhit budget recorded a stop: %v", name, bs.StopReason)
			}
		}
	}
}
