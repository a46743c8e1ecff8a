package core

// Guided branch-and-bound. The paper's directed dynamic programming
// derives its efficiency from descending cost limits, yet a cold start
// at an infinite limit prunes nothing until the depth-first search happens
// to complete a first plan. The guidance layer closes that gap: a seed
// planner produces a cheap complete plan up front, and the seed's cost
// becomes the initial limit. Because the seed is achievable, the optimal
// plan costs at most the seed — the seeded stage searches with the bound
// inclusive so a plan costing exactly the seed is admitted, and the
// first stage is guaranteed to succeed whenever the seed's cost is
// honest. If a seed planner underestimates (a cost-only planner whose
// formulas drift from the model's), the stage fails, the failure is
// memoized against that limit, and the search retries under a
// geometrically relaxed limit — iterative deepening over cost — reusing
// every winner and memoized failure already recorded. Guided search
// never returns the seed plan itself: only what the search engine finds
// is returned, so guided and unguided runs produce identical plans.

// SeedPlan is what a seed planner hands the guidance layer: the cost of
// one complete, achievable plan for the goal, plus an optional
// human-readable sketch for EXPLAIN output. The engine needs only the
// cost, as the bound; a planner that materializes the plan itself may
// attach it so a budget-stopped search can fall back on it.
type SeedPlan struct {
	// Cost is the seed plan's estimated cost under the model's own cost
	// functions. It must be achievable (a real plan costs this much);
	// an underestimate costs extra search stages but never changes the
	// result.
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
// inputs in advance when pruning. Returning nil declines for a class.
// An inadmissible floor (one exceeding some real plan) makes the search
// incorrectly discard plans — floors must be provable under the model's
// own cost functions.
type LowerBounder interface {
	LowerBound(lp LogicalProps) Cost
}

// Defaults for the staged relaxation schedule.
const (
	// DefaultSeedStages is the number of seeded limit stages before the
	// final stage at the caller's limit.
	DefaultSeedStages = 3
	// DefaultSeedGrowth is the geometric limit-relaxation factor
	// between seeded stages.
	DefaultSeedGrowth = 4.0
)

// guidedOptimize runs the staged search for OptimizeWithLimit when a
// SeedPlanner is configured. Winners and memoized failures accumulate in
// the ordinary tables across stages: winners recorded under any finite
// limit are globally optimal, and a failure at limit F certifies that no
// plan costs less than F, so both are sound to reuse at higher limits.
func (o *search[C]) guidedOptimize(root GroupID, required PhysProps, limit C) *Plan {
	var seedCost Cost
	if seed := o.opts.Guidance.SeedPlanner(o.Optimizer, root, required); seed != nil {
		seedCost = seed.Cost
		o.stats.SeedCost = seedCost
		if seed.Plan != nil {
			// Keep the materialized seed as the anytime degradation
			// floor; OptimizeWithLimitCtx vets its properties and cost
			// before ever returning it.
			o.seedFallback = seed.Plan
			o.stats.SeedFloorCost = seed.Plan.Cost
		}
	}
	if seedCost == nil || o.opts.Search.NoPruning || !seedCost.(C).Less(limit) {
		// No usable seed, pruning disabled, or the caller's limit is
		// already at least as tight as the seed: one unguided stage under
		// the caller's (inclusive) limit.
		o.stageTrace(root, required, limit)
		p, _ := o.findBestPlan(root, required, nil, limit, true)
		return p
	}

	stages := o.opts.Guidance.SeedStages
	if stages < 1 {
		stages = DefaultSeedStages
	}
	growth := o.opts.Guidance.SeedGrowth
	if growth <= 1 {
		growth = DefaultSeedGrowth
	}

	cur := seedCost.(C)
	for i := 0; i < stages; i++ {
		o.stageTrace(root, required, cur)
		p, transient := o.findBestPlan(root, required, nil, cur, true)
		if p != nil {
			return p
		}
		if o.memo.err != nil {
			return nil
		}
		if transient {
			// A cycle or budget stop kept the stage from being
			// definitive; relaxing the limit will not help more than
			// the final stage does.
			break
		}
		next, ok := scale(cur, growth)
		if !ok {
			// The cost ADT cannot be scaled; skip straight to the
			// caller's limit.
			break
		}
		if !next.Less(limit) {
			break
		}
		cur = next
	}

	// Final stage: the caller's original limit, with the same inclusive
	// bound semantics as an unguided run.
	o.stageTrace(root, required, limit)
	p, _ := o.findBestPlan(root, required, nil, limit, true)
	return p
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
