package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// Metric lets the stochastic policies scalarize toy costs for UCT
// rewards and floor priors; the engine must also work without it (see
// TestPolicyNoMetric, which strips it through a wrapper type).
func (c toyCost) Metric() float64 { return float64(c) }

// policyOpt builds a policy-configured optimizer over the toy model and
// loads a left-deep pair query of n leaves.
func policyOpt(t *testing.T, opts *core.Options, n int) (*core.Optimizer, core.GroupID) {
	t.Helper()
	opt := core.NewOptimizer(&toyModel{}, opts)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
	}
	root := opt.InsertQuery(leftDeepPair(names...))
	return opt, root
}

// TestPolicyMatchesExhaustiveOnSmallSpace: on a search space small
// enough for the episode bound to cover every arm, both stochastic
// policies must find the exhaustive optimum.
func TestPolicyMatchesExhaustiveOnSmallSpace(t *testing.T) {
	ex, exRoot := policyOpt(t, nil, 4)
	want, err := ex.Optimize(exRoot, toyColor(3))
	coretest.CheckMemo(t, ex)
	if err != nil || want == nil {
		t.Fatalf("exhaustive optimize: plan=%v err=%v", want, err)
	}
	for _, pol := range []core.SearchPolicy{core.PolicyMCTS, core.PolicyWidening} {
		opt, root := policyOpt(t, &core.Options{
			Search: core.SearchOptions{Policy: pol, Episodes: 128},
		}, 4)
		got, err := opt.Optimize(root, toyColor(3))
		coretest.CheckMemo(t, opt)
		if err != nil {
			t.Fatalf("%v: unexpected error %v", pol, err)
		}
		if got == nil {
			t.Fatalf("%v: no plan", pol)
		}
		if toyCosts.Less(got.Cost, want.Cost) || toyCosts.Less(want.Cost, got.Cost) {
			t.Errorf("%v: cost %s, exhaustive optimum %s", pol, got.Cost, want.Cost)
		}
		if !got.Delivered.Covers(toyColor(3)) {
			t.Errorf("%v: delivered %s does not cover required color", pol, got.Delivered)
		}
		st := opt.Stats()
		if st.Episodes == 0 {
			t.Errorf("%v: Stats.Episodes = 0, want > 0", pol)
		}
		if st.RolloutCommits == 0 {
			t.Errorf("%v: Stats.RolloutCommits = 0, want > 0", pol)
		}
		if st.SeedCost == nil || st.SeedFloorCost == nil {
			t.Errorf("%v: seed not captured: SeedCost=%v SeedFloorCost=%v", pol, st.SeedCost, st.SeedFloorCost)
		}
		if toyCosts.Less(st.SeedFloorCost, got.Cost) {
			t.Errorf("%v: cost %s exceeds the syntactic seed floor %s", pol, got.Cost, st.SeedFloorCost)
		}
	}
}

// TestPolicyDeterminism is the benchmark-attribution guard: with a
// fixed Options.Search.RandSeed and no wall-clock budget, two runs of
// the same policy must produce byte-identical plans and Stats.
func TestPolicyDeterminism(t *testing.T) {
	for _, pol := range []core.SearchPolicy{core.PolicyMCTS, core.PolicyWidening} {
		for _, seed := range []int64{0, 42} {
			run := func() (string, string, string) {
				opt, root := policyOpt(t, &core.Options{
					Search: core.SearchOptions{Policy: pol, RandSeed: seed, Episodes: 64},
					Budget: core.Budget{MaxSteps: 300},
				}, 6)
				p, err := opt.OptimizeCtx(t.Context(), root, toyColor(2))
				coretest.CheckMemo(t, opt)
				if p == nil {
					t.Fatalf("%v seed=%d: no plan (err=%v)", pol, seed, err)
				}
				return p.String(), p.Cost.String(), fmt.Sprintf("%+v", *opt.Stats())
			}
			p1, c1, s1 := run()
			p2, c2, s2 := run()
			if p1 != p2 || c1 != c2 {
				t.Errorf("%v seed=%d: plans differ across runs:\n  %s (%s)\n  %s (%s)", pol, seed, p1, c1, p2, c2)
			}
			if s1 != s2 {
				t.Errorf("%v seed=%d: Stats differ across runs:\n  %s\n  %s", pol, seed, s1, s2)
			}
		}
	}
	// Different seeds are allowed to differ; same-seed identity above is
	// the contract.
}

// TestPolicyAnytime: a policy run stopped by a tight step budget must
// still return a complete plan delivering the requirement, costing no
// more than the syntactic seed floor, alongside the typed budget error.
func TestPolicyAnytime(t *testing.T) {
	for _, pol := range []core.SearchPolicy{core.PolicyMCTS, core.PolicyWidening} {
		for _, steps := range []int{1, 3, 10} {
			opt, root := policyOpt(t, &core.Options{
				Search: core.SearchOptions{Policy: pol},
				Budget: core.Budget{MaxSteps: steps},
			}, 6)
			p, err := opt.Optimize(root, toyColor(1))
			coretest.CheckMemo(t, opt)
			if !errors.Is(err, core.ErrBudget) {
				t.Fatalf("%v steps=%d: want budget error, got %v", pol, steps, err)
			}
			if p == nil {
				t.Fatalf("%v steps=%d: no anytime plan", pol, steps)
			}
			if !p.Delivered.Covers(toyColor(1)) {
				t.Errorf("%v steps=%d: delivered %s does not cover", pol, steps, p.Delivered)
			}
			st := opt.Stats()
			if st.StopReason == nil {
				t.Errorf("%v steps=%d: StopReason not recorded", pol, steps)
			}
			if st.SeedFloorCost != nil && toyCosts.Less(st.SeedFloorCost, p.Cost) {
				t.Errorf("%v steps=%d: cost %s exceeds seed floor %s", pol, steps, p.Cost, st.SeedFloorCost)
			}
			if got := st.Steps(); got > steps {
				t.Errorf("%v steps=%d: took %d steps", pol, steps, got)
			}
		}
	}
}

// TestPolicyValidate: contradictory policy configurations are rejected.
func TestPolicyValidate(t *testing.T) {
	bad := []core.Options{
		{Search: core.SearchOptions{Policy: core.PolicyWidening, GlueMode: true}},
		{Search: core.SearchOptions{Policy: core.PolicyMCTS, NoIncremental: true}},
		{Search: core.SearchOptions{Policy: core.PolicyMCTS, Episodes: -1}},
		{Search: core.SearchOptions{Policy: core.SearchPolicy(9)}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, bad[i].Search)
		}
	}
	ok := core.Options{Search: core.SearchOptions{Policy: core.PolicyMCTS, RandSeed: 7, Episodes: 10}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid policy options rejected: %v", err)
	}
	if got, err := core.ParseSearchPolicy("widening"); err != nil || got != core.PolicyWidening {
		t.Errorf("ParseSearchPolicy(widening) = %v, %v", got, err)
	}
	if _, err := core.ParseSearchPolicy("annealing"); err == nil {
		t.Errorf("ParseSearchPolicy accepted unknown policy")
	}
}

// plainCost mirrors toyCost but deliberately lacks Metric; the policies
// must degrade to promise-order greed and 0/1 rewards without it.
type plainCost float64

func (c plainCost) Add(o plainCost) plainCost { return c + o }
func (c plainCost) Sub(o plainCost) plainCost { return c - o }
func (c plainCost) Less(o plainCost) bool     { return c < o }
func (c plainCost) String() string            { return fmt.Sprintf("%.1f", float64(c)) }

var plainCosts = core.CostsOf(plainCost(0), 1e18)

// noMetricModel delegates to the toy model but rewrites every cost into
// plainCost, stripping the MetricCost extension.
type noMetricModel struct{ toyModel }

func (m *noMetricModel) Name() string          { return "toy-no-metric" }
func (m *noMetricModel) Costs() core.CostSpace { return plainCosts }

func (m *noMetricModel) ImplementationRules() []*core.ImplRule {
	rules := m.toyModel.ImplementationRules()
	out := make([]*core.ImplRule, len(rules))
	for i, r := range rules {
		rr := *r
		orig := r.Cost
		rr.Cost = func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
			return plainCost(orig(ctx, b, required, alt).(toyCost))
		}
		out[i] = &rr
	}
	return out
}

func (m *noMetricModel) Enforcers() []*core.Enforcer {
	enfs := m.toyModel.Enforcers()
	out := make([]*core.Enforcer, len(enfs))
	for i, e := range enfs {
		ee := *e
		orig := e.Cost
		ee.Cost = func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost {
			return plainCost(orig(ctx, lp, required).(toyCost))
		}
		out[i] = &ee
	}
	return out
}

// TestPolicyNoMetric: a cost ADT without the optional Metric projection
// still optimizes correctly under both stochastic policies.
func TestPolicyNoMetric(t *testing.T) {
	ex := core.NewOptimizer(&noMetricModel{}, nil)
	exRoot := ex.InsertQuery(leftDeepPair("a", "b", "c", "d"))
	want, err := ex.Optimize(exRoot, toyColor(2))
	coretest.CheckMemo(t, ex)
	if err != nil || want == nil {
		t.Fatalf("exhaustive optimize: plan=%v err=%v", want, err)
	}
	for _, pol := range []core.SearchPolicy{core.PolicyMCTS, core.PolicyWidening} {
		opt := core.NewOptimizer(&noMetricModel{}, &core.Options{
			Search: core.SearchOptions{Policy: pol, Episodes: 128},
		})
		root := opt.InsertQuery(leftDeepPair("a", "b", "c", "d"))
		got, err := opt.Optimize(root, toyColor(2))
		coretest.CheckMemo(t, opt)
		if err != nil {
			t.Fatalf("%v: unexpected error %v", pol, err)
		}
		if got == nil || !got.Delivered.Covers(toyColor(2)) {
			t.Fatalf("%v: bad plan %v", pol, got)
		}
		if got.Cost != want.Cost {
			t.Errorf("%v: cost %s, exhaustive optimum %s", pol, got.Cost, want.Cost)
		}
	}
}

// TestPolicyTracing: policy runs emit the episode trace event alongside
// the ordinary goal/winner events.
func TestPolicyTracing(t *testing.T) {
	var episodes, winners int
	tr := core.TextTracer(func(string) {})
	_ = tr
	opt := core.NewOptimizer(&toyModel{}, &core.Options{
		Search: core.SearchOptions{Policy: core.PolicyMCTS, Episodes: 8},
		Trace: core.TraceOptions{Tracer: traceFunc(func(ev core.TraceEvent) {
			switch ev.Kind {
			case core.TracePolicyEpisode:
				episodes++
			case core.TraceWinner:
				winners++
			}
		})},
	})
	root := opt.InsertQuery(leftDeepPair("a", "b", "c"))
	if _, err := opt.Optimize(root, toyColor(1)); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	coretest.CheckMemo(t, opt)
	if episodes != 8 {
		t.Errorf("TracePolicyEpisode events = %d, want 8", episodes)
	}
	if winners == 0 {
		t.Errorf("no TraceWinner events from rollout commits")
	}
}
