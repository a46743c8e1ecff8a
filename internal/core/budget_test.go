package core_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// TestTypedBudgetErrorMatrix: every typed budget error matches the
// umbrella ErrBudget under errors.Is, the context-originated ones
// additionally match their context error, and nothing matches across
// categories.
func TestTypedBudgetErrorMatrix(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		matches []error
		not     []error
	}{
		{"canceled", core.ErrCanceled,
			[]error{core.ErrBudget, context.Canceled},
			[]error{context.DeadlineExceeded, core.ErrDeadline}},
		{"deadline", core.ErrDeadline,
			[]error{core.ErrBudget, context.DeadlineExceeded},
			[]error{context.Canceled, core.ErrCanceled}},
		{"steps", core.ErrStepBudget,
			[]error{core.ErrBudget},
			[]error{context.Canceled, context.DeadlineExceeded, core.ErrMemoBudget}},
		{"memo", core.ErrMemoBudget,
			[]error{core.ErrBudget},
			[]error{context.Canceled, context.DeadlineExceeded, core.ErrStepBudget}},
	}
	for _, c := range cases {
		for _, target := range c.matches {
			if !errors.Is(c.err, target) {
				t.Errorf("%s: errors.Is(%v, %v) = false, want true", c.name, c.err, target)
			}
		}
		for _, target := range c.not {
			if errors.Is(c.err, target) {
				t.Errorf("%s: errors.Is(%v, %v) = true, want false", c.name, c.err, target)
			}
		}
	}
	// The umbrella does not match the specific errors (asymmetry of Is).
	if errors.Is(core.ErrBudget, core.ErrCanceled) {
		t.Error("ErrBudget must not match ErrCanceled")
	}
}

// TestCanceledContextDegrades: a pre-canceled context stops the search
// before it starts, yet the engine still returns a complete plan (the
// query as written) tagged with ErrCanceled.
func TestCanceledContextDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	opt := newToyOpt(nil)
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	plan, err := opt.OptimizeCtx(ctx, g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if !errors.Is(err, core.ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if plan == nil {
		t.Fatal("canceled optimization returned bare nil plan")
	}
	if !plan.Delivered.Covers(toyColor(1)) {
		t.Fatalf("degraded plan does not cover the requirement: %s", plan.Format())
	}
	st := opt.Stats()
	if st.StopReason == nil || !errors.Is(st.StopReason, core.ErrBudget) {
		t.Errorf("StopReason = %v, want a budget error", st.StopReason)
	}
	if !st.AnytimeFallback {
		t.Error("AnytimeFallback not recorded for a fallback plan")
	}
}

// TestStepBudgetDegrades: a one-move step budget stops the search almost
// immediately; the anytime result is still complete and correct, and
// costs at least the true optimum.
func TestStepBudgetDegrades(t *testing.T) {
	tree := leftDeepPair("a", "b", "c", "d", "e")
	ref := newToyOpt(nil)
	optimal, err := ref.Optimize(ref.InsertQuery(tree), toyColor(1))
	coretest.CheckMemo(t, ref)
	if err != nil || optimal == nil {
		t.Fatalf("reference run: %v", err)
	}

	opt := newToyOpt(&core.Options{Budget: core.Budget{MaxSteps: 1}})
	g := opt.InsertQuery(tree)
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if !errors.Is(err, core.ErrBudget) || !errors.Is(err, core.ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if plan == nil {
		t.Fatal("step-budget stop returned bare nil plan")
	}
	if !plan.Delivered.Covers(toyColor(1)) {
		t.Fatalf("degraded plan does not cover the requirement: %s", plan.Format())
	}
	if toyCosts.Less(plan.Cost, optimal.Cost) {
		t.Fatalf("degraded cost %v below optimum %v", plan.Cost, optimal.Cost)
	}
	if s := opt.Stats().Steps(); s > 1 {
		t.Errorf("Steps() = %d after MaxSteps=1", s)
	}
}

// TestBudgetStopNeverAboveSeedFloor: whatever step budget interrupts the
// search, under every policy, the degraded plan costs no more than the
// captured seed floor. The seed planner's estimate overshoots its own
// floor plan, as the greedy relational seeder's can, so the seeded limit
// admits the costlier colored-pair plans the promise order pursues first,
// and a stop can catch the search holding one of them.
func TestBudgetStopNeverAboveSeedFloor(t *testing.T) {
	tree := leftDeepPair("a", "b", "c", "d")
	overshoot := func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
		seed := o.SyntacticSeed(root, required)
		if seed != nil {
			seed.Cost = seed.Cost.(toyCost).Add(20)
		}
		return seed
	}
	stops := 0
	for _, policy := range []core.SearchPolicy{core.PolicyExhaustive, core.PolicyMCTS, core.PolicyWidening} {
		for steps := 1; steps <= 60; steps++ {
			opt := newToyOpt(&core.Options{
				Budget:   core.Budget{MaxSteps: steps},
				Search:   core.SearchOptions{Policy: policy},
				Guidance: core.GuidanceOptions{SeedPlanner: overshoot},
			})
			plan, err := opt.Optimize(opt.InsertQuery(tree), toyColor(1))
			coretest.CheckMemo(t, opt)
			if err == nil {
				continue
			}
			if !errors.Is(err, core.ErrStepBudget) {
				t.Fatalf("%s, MaxSteps %d: err = %v", policy, steps, err)
			}
			stops++
			floor := opt.Stats().SeedFloorCost
			if plan == nil || floor == nil {
				t.Fatalf("%s, MaxSteps %d: plan %v, floor %v", policy, steps, plan, floor)
			}
			if toyCosts.Less(floor, plan.Cost) {
				t.Errorf("%s, MaxSteps %d: budget-stopped plan costs %v, above the seed floor %v", policy, steps, plan.Cost, floor)
			}
		}
	}
	if stops == 0 {
		t.Fatal("no step budget stopped the search")
	}
}

// TestDeadlineBudgetDegrades: an immediately-expiring wall-clock budget
// surfaces ErrDeadline with a fallback plan.
func TestDeadlineBudgetDegrades(t *testing.T) {
	opt := newToyOpt(&core.Options{Budget: core.Budget{Timeout: time.Nanosecond}})
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	plan, err := opt.Optimize(g, toyColor(1))
	coretest.CheckMemo(t, opt)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if plan == nil || !plan.Delivered.Covers(toyColor(1)) {
		t.Fatalf("degraded plan = %v", plan)
	}
}

// TestMemoBytesBudgetDegrades: a one-byte memo budget trips on the first
// poll and still yields a plan; the error is ErrMemoBudget.
func TestMemoBytesBudgetDegrades(t *testing.T) {
	opt := newToyOpt(&core.Options{Budget: core.Budget{MaxMemoBytes: 1}})
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	plan, err := opt.Optimize(g, nil)
	coretest.CheckMemo(t, opt)
	if !errors.Is(err, core.ErrMemoBudget) {
		t.Fatalf("err = %v, want ErrMemoBudget", err)
	}
	if plan == nil {
		t.Fatal("memo-budget stop returned bare nil plan")
	}
}

// TestExploreCtxCanceled: exploration honors the context too.
func TestExploreCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := newToyOpt(nil)
	g := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	if err := opt.ExploreCtx(ctx, g); !errors.Is(err, core.ErrBudget) {
		t.Fatalf("ExploreCtx err = %v, want a budget error", err)
	}
	coretest.CheckMemo(t, opt)
	if sr := opt.Stats().StopReason; sr == nil {
		t.Error("StopReason not set by a budget-stopped exploration")
	}
}

// TestZeroBudgetIdentical: with no budget and a plain background
// context, a budget-capable run is indistinguishable from the classic
// engine — identical plan cost and identical search counters.
func TestZeroBudgetIdentical(t *testing.T) {
	tree := leftDeepPair("a", "b", "c", "d")

	classic := newToyOpt(nil)
	pc, err := classic.Optimize(classic.InsertQuery(tree), toyColor(1))
	coretest.CheckMemo(t, classic)
	if err != nil || pc == nil {
		t.Fatalf("classic: %v", err)
	}

	budgeted := newToyOpt(&core.Options{Budget: core.Budget{}})
	pb, err := budgeted.OptimizeCtx(context.Background(), budgeted.InsertQuery(tree), toyColor(1))
	coretest.CheckMemo(t, budgeted)
	if err != nil || pb == nil {
		t.Fatalf("zero-budget: %v", err)
	}

	if pc.Cost.(toyCost) != pb.Cost.(toyCost) {
		t.Fatalf("cost %v != %v", pc.Cost, pb.Cost)
	}
	if !reflect.DeepEqual(*classic.Stats(), *budgeted.Stats()) {
		t.Fatalf("stats diverge:\nclassic:  %+v\nbudgeted: %+v", *classic.Stats(), *budgeted.Stats())
	}
}

// TestOptionsValidate covers the contradiction checks.
func TestOptionsValidate(t *testing.T) {
	var nilOpts *core.Options
	if err := nilOpts.Validate(); err != nil {
		t.Errorf("nil options: %v", err)
	}
	if err := (&core.Options{}).Validate(); err != nil {
		t.Errorf("zero options: %v", err)
	}
	bad := []core.Options{
		{Search: core.SearchOptions{MoveFilter: func(m []core.Move) []core.Move { return m }}},
		{
			Search:   core.SearchOptions{GlueMode: true},
			Guidance: core.GuidanceOptions{SeedPlanner: core.SyntacticSeedPlanner()},
		},
		{Guidance: core.GuidanceOptions{SeedStages: -1}},
		{Guidance: core.GuidanceOptions{SeedGrowth: -0.5}},
		{Budget: core.Budget{Timeout: -time.Second}},
		{Budget: core.Budget{MaxSteps: -1}},
		{Budget: core.Budget{MaxMemoBytes: -1}},
		{Budget: core.Budget{MaxExprs: -1}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a contradictory configuration", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewOptimizer did not panic on an invalid configuration")
		}
	}()
	core.NewOptimizer(&toyModel{}, &bad[0])
}

// TestTracerStructuredEvents: the structured tracer receives goal,
// move, and winner events with coherent payloads, and the kind filter
// of TextTracer selects exactly the requested kinds.
func TestTracerStructuredEvents(t *testing.T) {
	var events []core.TraceEvent
	opt := newToyOpt(&core.Options{Trace: core.TraceOptions{
		Tracer: traceFunc(func(ev core.TraceEvent) { events = append(events, ev) }),
	}})
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	if _, err := opt.Optimize(g, toyColor(1)); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	seen := map[core.TraceEventKind]int{}
	for _, ev := range events {
		seen[ev.Kind]++
		if ev.Kind == core.TraceWinner && (ev.Plan == nil || ev.Cost == nil) {
			t.Errorf("winner event missing plan or cost: %+v", ev)
		}
		if ev.Kind == core.TraceMovePursued && ev.Move == "" {
			t.Errorf("move event missing move name: %+v", ev)
		}
	}
	for _, kind := range []core.TraceEventKind{
		core.TraceGoalBegin, core.TraceGoalEnd, core.TraceMovePursued, core.TraceWinner,
	} {
		if seen[kind] == 0 {
			t.Errorf("no %s events traced (saw %v)", kind, seen)
		}
	}

	// The filtered text tracer sees only the requested kind.
	var lines []string
	opt2 := newToyOpt(&core.Options{Trace: core.TraceOptions{
		Tracer: core.TextTracer(func(l string) { lines = append(lines, l) }, core.TraceWinner),
	}})
	g2 := opt2.InsertQuery(pair(leaf("a"), leaf("b")))
	if _, err := opt2.Optimize(g2, nil); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt2)
	if len(lines) == 0 {
		t.Fatal("filtered tracer saw nothing")
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "winner ") {
			t.Errorf("filtered tracer leaked a non-winner line: %q", l)
		}
	}
}

// TestClassicTracerFormat: the classic adapter preserves the historical
// one-line text shapes for winner and failure events.
func TestClassicTracerFormat(t *testing.T) {
	var lines []string
	opt := newToyOpt(&core.Options{Trace: core.TraceOptions{
		Tracer: core.ClassicTracer(func(l string) { lines = append(lines, l) }),
	}})
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	// A hopeless limit records failures; a follow-up open run records
	// winners.
	if _, err := opt.OptimizeWithLimitCtx(context.Background(), g, toyColor(2), toyCost(1)); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if _, err := opt.Optimize(g, toyColor(2)); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	var winner, failure bool
	for _, l := range lines {
		if strings.HasPrefix(l, "winner group=") && strings.Contains(l, "cost=") && strings.Contains(l, "plan=") {
			winner = true
		}
		if strings.HasPrefix(l, "failure group=") && strings.Contains(l, "limit=") {
			failure = true
		}
	}
	if !winner || !failure {
		t.Fatalf("classic lines missing winner=%v failure=%v:\n%s", winner, failure, strings.Join(lines, "\n"))
	}
}

// traceFunc adapts a function to the Tracer interface for tests.
type traceFunc func(core.TraceEvent)

func (f traceFunc) Trace(ev core.TraceEvent) { f(ev) }
