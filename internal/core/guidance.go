package core

// Guided branch-and-bound. The paper's directed dynamic programming
// derives its efficiency from descending cost limits, yet a cold start
// at an infinite limit prunes nothing until the depth-first search happens
// to complete a first plan. The guidance layer closes that gap: a seed
// planner produces a cheap complete plan up front, and the seed's cost
// becomes the initial limit. Because the seed is achievable, the optimal
// plan costs at most the seed — the seeded stage searches with the bound
// inclusive so a plan costing exactly the seed is admitted, and under
// the cost ADT's exact arithmetic that one stage succeeds whenever the
// seed's cost is honest. If a seed planner underestimates (a cost-only
// planner whose formulas drift from the model's), the stage fails, the
// failures are memoized against that limit, and one more stage runs at
// the caller's limit, reusing every winner and memoized failure already
// recorded. Guided search never returns the seed plan itself: only what
// the search engine finds is returned, so guided and unguided runs
// produce identical plans.

// SeedPlan is what a seed planner hands the guidance layer: the cost of
// one complete, achievable plan for the goal, plus an optional
// human-readable sketch for EXPLAIN output. The engine needs only the
// cost, as the bound; a planner that materializes the plan itself may
// attach it so a budget-stopped search can fall back on it.
type SeedPlan struct {
	// Cost is the seed plan's estimated cost under the model's own cost
	// functions. It must be achievable (a real plan costs this much);
	// an underestimate costs a second search stage, at the caller's
	// limit, but never changes the result.
	Cost Cost
	// Desc optionally sketches the seed plan for display.
	Desc string
	// Plan, if non-nil, is the complete seed plan itself. Guided search
	// never returns it as the optimum, but it becomes the degradation
	// floor when a Budget or cancellation stops the search before any
	// better plan is found (see OptimizeWithLimitCtx). A seed plan
	// whose Delivered vector does not cover the goal's requirement is
	// ignored for that purpose. Its Group and LogProps fields may refer
	// to the planner's own scratch memo.
	Plan *Plan
}

// SeedPlanner produces a cheap complete plan for an optimization goal
// before exhaustive search begins. root is the goal's equivalence class
// in the optimizer's memo (not yet explored), required the goal's
// physical property vector. Returning nil declines to seed — the search
// proceeds unguided. Planners must be safe for concurrent use across
// optimizer instances: vdb's concurrent requests share one Options
// value, and with it one SeedPlanner.
type SeedPlanner func(o *Optimizer, root GroupID, required PhysProps) *SeedPlan

// LowerBounder is an optional model extension that makes cost bounds cut
// work before it happens. LowerBound returns an admissible floor for an
// equivalence class: no physical plan for the class, under any property
// requirement, may cost less than the floor (for the relational model,
// every plan must at least scan its base relations once). The engine
// uses floors to refute goals whose limit falls below the floor without
// exploring the class, and to charge an algorithm's not-yet-optimized
// inputs in advance when pruning. The floor is a value of the model's
// cost type C; returning ok false declines for a class. A model whose
// LowerBound returns another type than its Costs declares provides no
// floor. An inadmissible floor (one exceeding some real plan) makes the
// search incorrectly discard plans — floors must be provable under the
// model's own cost functions.
type LowerBounder[C CostADT[C]] interface {
	LowerBound(lp LogicalProps) (C, bool)
}

// guidedOptimize runs OptimizeWithLimit when a SeedPlanner is
// configured: one stage under the seed's cost and, only when that stage
// ends without a plan, one at the caller's limit. Winners and memoized
// failures carry over from the first stage to the second: winners
// recorded under any finite limit are globally optimal, and a failure at
// limit F certifies that no plan costs less than F, so both are sound to
// reuse at a higher limit.
func (o *search[C]) guidedOptimize(root GroupID, required PhysProps, limit C) *Plan {
	// Without a usable seed tighter than limit, one stage is the caller's.
	if seedLimit, ok := o.seedLimit(o.opts.Guidance.SeedPlanner(o.Optimizer, root, required), limit); ok {
		o.stageTrace(root, required, seedLimit)
		if p, _ := o.findBestPlan(root, required, nil, seedLimit, true); p != nil || o.memo.err != nil {
			return p
		}
		// The seed lied low, or a cycle kept the stage from being
		// definitive: search once more under the caller's limit.
	}
	o.stageTrace(root, required, limit)
	p, _ := o.findBestPlan(root, required, nil, limit, true)
	return p
}

// seedLimit records a seed planner's result: its cost in Stats and its
// plan, if any, as the anytime floor (OptimizeWithLimitCtx vets it). It
// returns the seed's cost and true when pruning is on and the seed is
// tighter than limit, else limit and false.
func (o *search[C]) seedLimit(seed *SeedPlan, limit C) (C, bool) {
	if seed == nil || seed.Cost == nil {
		return limit, false
	}
	o.stats.SeedCost = seed.Cost
	if seed.Plan != nil {
		o.seedFallback = seed.Plan
		o.stats.SeedFloorCost = seed.Plan.Cost
	}
	if c := seed.Cost.(C); !o.opts.Search.NoPruning && c.Less(limit) {
		return c, true
	}
	return limit, false
}

// stageTrace counts a guided-search limit stage and reports it to the
// tracer.
func (o *search[C]) stageTrace(root GroupID, required PhysProps, limit C) {
	o.stats.LimitStages++
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Kind: TraceLimitStage, Group: root,
			Required: required, Limit: limit, Stage: o.stats.LimitStages})
	}
}

// seedModel wraps a model with an empty transformation rule set. The
// syntactic seed pass optimizes the query exactly as written — algorithm
// and enforcer choices only, no algebraic reordering — so its scratch
// memo never grows beyond the original expression tree.
type seedModel struct{ Model }

func (seedModel) TransformationRules() []*TransformRule { return nil }

// SyntacticSeed costs the query as written: it re-optimizes the goal's
// original expression tree in a scratch memo with transformation rules
// disabled, choosing only algorithms and enforcers. The resulting cost
// is that of a real plan under the model's own cost functions, making it
// a sound (if loose) seed for any data model — the trivial per-model
// fallback planner. It returns nil when the tree cannot be recovered or
// no plan for it exists. The seed carries its complete plan, so it also
// serves as the anytime degradation floor.
func (o *Optimizer) SyntacticSeed(root GroupID, required PhysProps) *SeedPlan {
	p := o.syntacticPlan(root, required)
	if p == nil {
		return nil
	}
	return &SeedPlan{Cost: p.Cost, Desc: p.String(), Plan: p}
}

// syntacticPlan is the scratch optimization behind SyntacticSeed,
// returning the complete plan for the query as written (its Group and
// LogProps fields refer to the scratch memo). The anytime fallback uses
// it directly when a budget stop arrives before any plan was found: the
// pass is cheap — with transformations disabled the scratch memo never
// grows beyond the original expression tree.
func (o *Optimizer) syntacticPlan(root GroupID, required PhysProps) *Plan {
	tree := o.originalTree(o.memo.Find(root), make(map[GroupID]bool))
	if tree == nil {
		return nil
	}
	scratch := NewOptimizer(seedModel{o.model}, &Options{Budget: Budget{MaxExprs: o.opts.Budget.MaxExprs}})
	// The wrapper changes only which rules the search fires: rule
	// callbacks, which may read the model they run for through the rule
	// context, see the model itself.
	scratch.ctx.Model, scratch.memo.ctx.Model = o.model, o.model
	g := scratch.InsertQuery(tree)
	if g == InvalidGroup {
		return nil
	}
	p, err := scratch.Optimize(g, required)
	// The scratch pass's rule-match attempts are real work; account for
	// them in the guided run's counters so comparisons stay honest.
	o.stats.MatchCalls += scratch.stats.MatchCalls
	if err != nil || p == nil {
		return nil
	}
	return p
}

// SyntacticSeedPlanner adapts SyntacticSeed to the SeedPlanner hook.
func SyntacticSeedPlanner() SeedPlanner {
	return func(o *Optimizer, root GroupID, required PhysProps) *SeedPlan {
		return o.SyntacticSeed(root, required)
	}
}

// originalTree reconstructs a logical expression tree for a class from
// the memo, following each class's first stored expression — before any
// exploration these are exactly the operators the query was inserted
// with. onPath guards against reference cycles a merged memo can hold.
func (o *Optimizer) originalTree(gid GroupID, onPath map[GroupID]bool) *ExprTree {
	gid = o.memo.Find(gid)
	if onPath[gid] {
		return nil
	}
	exprs := o.memo.Group(gid).Exprs()
	if len(exprs) == 0 {
		return nil
	}
	e := exprs[0]
	t := &ExprTree{Op: e.Op}
	if len(e.Inputs) > 0 {
		onPath[gid] = true
		t.Children = make([]*ExprTree, len(e.Inputs))
		for i, in := range e.Inputs {
			c := o.originalTree(in, onPath)
			if c == nil {
				return nil
			}
			t.Children[i] = c
		}
		delete(onPath, gid)
	}
	return t
}
