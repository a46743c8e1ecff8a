package relopt_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// anytimeGrid is one input of TestPolicyAnytimeProperty: a generated
// workload of random select-join queries and the step budgets every
// search policy runs it under.
type anytimeGrid struct {
	seed    int64
	levels  []int // relations per query
	steps   []int // MaxSteps budgets
	queries int   // queries per level
	// episodes is the stochastic policies' episode budget; zero derives
	// one from the step budget that the budget, not the episodes, binds.
	episodes int
	// maxVsGuided, when set, bounds each stochastic policy's mean
	// per-query cost ratio against guided branch-and-bound in every
	// (level, budget) cell.
	maxVsGuided float64
}

// TestPolicyAnytimeProperty is the anytime property test at scale: on
// randomized 8-12 relation queries under step budgets, every search
// configuration — guided branch-and-bound and both stochastic policies —
// must hand back a vetted complete plan (delivers the required
// properties, costs no more than the seed floor) whether or not the
// budget stopped it, and never pursue moves past the budget. On the
// second grid, where the budgets let the searches mostly complete, MCTS
// and iterative widening must also stay within 1.5x of guided B&B's
// mean plan cost.
func TestPolicyAnytimeProperty(t *testing.T) {
	grids := []anytimeGrid{
		{seed: 3, levels: []int{10, 12}, steps: []int{40, 400}, queries: 4, episodes: 8},
		{seed: 7, levels: []int{8, 10}, steps: []int{300, 1000}, queries: 4, maxVsGuided: 1.5},
	}
	policies := []core.SearchPolicy{core.PolicyExhaustive, core.PolicyMCTS, core.PolicyWidening}
	for _, g := range grids {
		src := datagen.New(g.seed)
		cat := src.Catalog(g.levels[len(g.levels)-1])
		model := relopt.New(cat, relopt.DefaultConfig())
		seedPlanner := model.SeedPlanner()
		for _, n := range g.levels {
			queries := make([]datagen.Query, g.queries)
			for q := range queries {
				queries[q] = src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
			}
			for _, steps := range g.steps {
				episodes := g.episodes
				if episodes == 0 {
					// One rollout pursues a handful of moves per join.
					episodes = max(4, steps/(6*n))
				}
				vsGuided := make([]float64, len(policies))
				for q, query := range queries {
					costs := make([]float64, len(policies))
					for i, pol := range policies {
						opts := &core.Options{
							Guidance: core.GuidanceOptions{SeedPlanner: seedPlanner},
							Budget:   core.Budget{MaxSteps: steps},
						}
						if pol != core.PolicyExhaustive {
							opts.Search = core.SearchOptions{Policy: pol, RandSeed: g.seed, Episodes: episodes}
						}
						plan, stats, err := measureBudgeted(t, model, query, opts)
						if err != nil && !errors.Is(err, core.ErrBudget) {
							t.Fatalf("seed=%d n=%d q=%d steps=%d %v: unexpected error %v", g.seed, n, q, steps, pol, err)
						}
						if !validAnytime(plan, query, stats) {
							t.Fatalf("seed=%d n=%d q=%d steps=%d %v: anytime contract violated (plan=%v, err=%v)",
								g.seed, n, q, steps, pol, plan, err)
						}
						if got := stats.Steps(); got > steps {
							t.Errorf("seed=%d n=%d q=%d steps=%d %v: pursued %d moves past the budget", g.seed, n, q, steps, pol, got)
						}
						costs[i] = plan.Cost.(relopt.Cost).Total()
					}
					for i := range policies {
						vsGuided[i] += costs[i] / costs[0] / float64(len(queries))
					}
				}
				if g.maxVsGuided == 0 {
					continue
				}
				for i, pol := range policies[1:] {
					if r := vsGuided[i+1]; r > g.maxVsGuided {
						t.Errorf("seed=%d n=%d steps=%d %v: mean cost %.3fx guided B&B, want <= %.1fx",
							g.seed, n, steps, pol, r, g.maxVsGuided)
					}
				}
			}
		}
	}
}

// measureBudgeted optimizes one query under the given options and
// returns the plan, stats, and the optimizer's error verbatim (a budget
// error may accompany a usable plan).
func measureBudgeted(t *testing.T, model core.Model, query datagen.Query, opts *core.Options) (*core.Plan, core.Stats, error) {
	t.Helper()
	opt := core.NewOptimizer(model, opts)
	root := opt.InsertQuery(query.Root)
	var required core.PhysProps
	if query.OrderBy != rel.InvalidCol {
		required = relopt.SortedOn(query.OrderBy)
	}
	plan, err := opt.Optimize(root, required)
	coretest.CheckMemo(t, opt)
	return plan, *opt.Stats(), err
}

// validAnytime checks the anytime contract: a complete plan exists, it
// delivers the required properties, and when the seed planner
// materialized a floor plan the result costs no more than that floor.
// The binding bound is the floor, not the greedy seed's SeedCost: the
// greedy planner prices a plan it never builds, so its estimate can be
// unachievable, and every policy relaxes past it in stages when it is.
func validAnytime(plan *core.Plan, query datagen.Query, stats core.Stats) bool {
	if plan == nil || plan.Cost == nil {
		return false
	}
	if query.OrderBy != rel.InvalidCol {
		required := relopt.SortedOn(query.OrderBy)
		if plan.Delivered == nil || !plan.Delivered.Covers(required) {
			return false
		}
	}
	complete := true
	plan.Walk(func(p *core.Plan) {
		if p.Op == nil || p.Cost == nil {
			complete = false
		}
	})
	if !complete {
		return false
	}
	if fc, ok := stats.SeedFloorCost.(relopt.Cost); ok {
		if plan.Cost.(relopt.Cost).Total() > fc.Total() {
			return false
		}
	}
	return true
}
