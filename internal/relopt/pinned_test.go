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

// pinnedQuery is one generated query of the pinned workload.
type pinnedQuery struct {
	q        datagen.Query
	required core.PhysProps
}

// pinnedWorkload draws the fixed query set the exploration counters are
// pinned on: seed 1993, three queries in each of random shape at 6, 8
// and 10 relations plus chain and star at 8.
func pinnedWorkload() (*rel.Catalog, []pinnedQuery) {
	src := datagen.New(1993)
	cat := src.Catalog(10)
	cells := []struct {
		n     int
		shape datagen.Shape
	}{
		{6, datagen.ShapeRandom}, {8, datagen.ShapeRandom}, {10, datagen.ShapeRandom},
		{8, datagen.ShapeChain}, {8, datagen.ShapeStar},
	}
	var qs []pinnedQuery
	for _, c := range cells {
		for i := 0; i < 3; i++ {
			q := src.SelectJoinQuery(cat, c.n, c.shape)
			pq := pinnedQuery{q: q}
			if q.OrderBy != rel.InvalidCol {
				pq.required = relopt.SortedOn(q.OrderBy)
			}
			qs = append(qs, pq)
		}
	}
	return cat, qs
}

// pinnedCounters is what one configuration sums over the workload.
type pinnedCounters struct {
	Exprs, RulesFired, Bindings, Groups, Merges, Steps int
	CostUnits                                          int64
}

// guidedOptimizer is a cold optimizer as a caller without a plan cache
// builds one: a fresh model, a fresh memo, the greedy-seeded guided
// search with whatever configure adds to its options.
func guidedOptimizer(cat *rel.Catalog, configure func(*core.Options)) *core.Optimizer {
	model := relopt.New(cat, relopt.DefaultConfig())
	opts := &core.Options{Guidance: core.GuidanceOptions{SeedPlanner: model.SeedPlanner()}}
	configure(opts)
	return core.NewOptimizer(model, opts)
}

// runPinned optimizes every query cold under the options configure adds
// to the guided search, and returns the summed counters.
func runPinned(t *testing.T, cat *rel.Catalog, qs []pinnedQuery, configure func(*core.Options)) pinnedCounters {
	t.Helper()
	var sum pinnedCounters
	var total relopt.Cost
	for i, pq := range qs {
		opt := guidedOptimizer(cat, configure)
		plan, err := opt.Optimize(opt.InsertQuery(pq.q.Root), pq.required)
		coretest.CheckMemo(t, opt)
		if err != nil && !errors.Is(err, core.ErrBudget) {
			t.Fatalf("query %d: %v", i, err)
		}
		if err == nil {
			coretest.CheckFixpoint(t, opt)
		}
		if plan == nil {
			t.Fatalf("query %d: no plan (err %v)", i, err)
		}
		s := opt.Stats()
		sum.Exprs += s.Exprs
		sum.RulesFired += s.RulesFired
		sum.Bindings += s.Bindings
		sum.Groups += s.Groups
		sum.Merges += s.Merges
		sum.Steps += s.Steps()
		total = total.Add(plan.Cost.(relopt.Cost))
	}
	sum.CostUnits = total.Units()
	return sum
}

// TestExplorationCountersPinned holds the search's observable behaviour
// fixed across changes to how exploration is carried out: the number of
// expressions, classes, merges, rule firings, bindings and steps, and the
// exact summed plan cost in relopt.Unit, for exhaustive guided search and
// for each policy under a 200-step budget; every search that completes
// must also have reached transformation fixpoint (Memo.CheckFixpoint).
// The exhaustive cost bits were recorded at commit 0395947, before the
// binder, the substitute builders and the logical properties stopped
// allocating per firing. The counters were re-pinned when merges began to keep the memo congruence-closed:
// retiring duplicate spellings took exhaustive search from 11488 to 11115
// expressions, 39325 to 27172 rule firings, 140398 to 91763 bindings and
// 9027 to 8058 steps, with the plan cost bits unchanged. Each budgeted
// summed cost went down. A budget-stopped run's Steps count the budget
// it spent, so they follow its trajectory: widening's rose from 2745 to
// 2762 as it fitted more episodes into the same budget. Rule firings and
// bindings were re-pinned again when exploration became semi-naive: a
// merge no longer re-fires every binding of a multi-level rule at the
// enlarged class's consumers, only those through members beyond the
// watermark of their last enumeration. Exhaustive search went from 27172
// to 23387 rule firings and from 91763 to 76623 bindings, and each
// budgeted case from 27172 to 23387 firings and by 15140 bindings
// (guided 86594, MCTS 86591, widening 86965 before), every other counter
// and the cost bits unchanged. They were re-pinned once more when the join
// rules became duplicate-free (commutativity and both associativities,
// each substitute born with the rules off that would only re-derive it):
// exhaustive search went from 11115 to 3871 expressions, 23387 to 2799
// rule firings, 76623 to 15160 bindings, 3260 to 1072 classes and 1898 to
// 0 merges. A budgeted search now explores only the classes its goals
// reach, so its counters part from the exhaustive ones: guided from 11115
// expressions, 23387 firings, 71454 bindings, 3260 classes and 1898
// merges to 2483, 1599, 7261, 884 and 0; MCTS (71451 bindings before) to
// 2994, 2009, 8193, 985 and 0; widening (71825 bindings before) to 3123,
// 2123, 8870, 1000 and 0. Steps and cost bits are unchanged in all four
// cases. Bindings were re-pinned once more when each class came to match
// its implementation rules once for all its requirements rather than once
// per requirement: exhaustive search from 15160 to 11534, guided from
// 7261 to 6292, MCTS from 8193 to 7307 and widening from 8870 to 7986,
// every other counter and the cost bits unchanged. The cost was re-pinned
// when relopt.Cost became integers of relopt.Unit, so the float64 bits
// of a summed total became the exact sum in Units, every plan and every
// other counter unchanged: exhaustive 109565242.99133047 I/O units (bits
// 4727125208475311958) to 109565242991335 Units, guided 514424548.8834356
// (4737410220511340758) to 514424548883442, MCTS 109576712.57544729
// (4727125978186072590) to 109576712575446 and widening
// 109676690.40433015 (4727132687584594105) to 109676690404333; each moves
// by less than 1e-13 relative: the old float sums rounded as they went,
// and each formula now rounds its terms to a Unit once.
func TestExplorationCountersPinned(t *testing.T) {
	cat, qs := pinnedWorkload()
	budgeted := func(p core.SearchPolicy) func(*core.Options) {
		return func(o *core.Options) {
			o.Budget = core.Budget{MaxSteps: 200}
			o.Search.Policy = p
			o.Search.RandSeed = 1993
		}
	}
	cases := []struct {
		name      string
		configure func(*core.Options)
		want      pinnedCounters
	}{
		{"exhaustive", func(*core.Options) {}, pinnedCounters{Exprs: 3871, RulesFired: 2799, Bindings: 11534, Groups: 1072, Merges: 0, Steps: 8058, CostUnits: 109565242991335}},
		{"budgeted-guided", budgeted(core.PolicyExhaustive), pinnedCounters{Exprs: 2483, RulesFired: 1599, Bindings: 6292, Groups: 884, Merges: 0, Steps: 2391, CostUnits: 514424548883442}},
		{"budgeted-mcts", budgeted(core.PolicyMCTS), pinnedCounters{Exprs: 2994, RulesFired: 2009, Bindings: 7307, Groups: 985, Merges: 0, Steps: 2904, CostUnits: 109576712575446}},
		{"budgeted-widening", budgeted(core.PolicyWidening), pinnedCounters{Exprs: 3123, RulesFired: 2123, Bindings: 7986, Groups: 1000, Merges: 0, Steps: 2762, CostUnits: 109676690404333}},
	}
	for _, c := range cases {
		if got := runPinned(t, cat, qs, c.configure); got != c.want {
			t.Errorf("%s: counters %+v, pinned %+v", c.name, got, c.want)
		}
	}
}
