package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
)

// Optimizer is a generated optimizer: the model-independent search
// engine bound to one data model. It maps expressions over the model's
// logical algebra into the cheapest equivalent expressions over the
// model's physical algebra, honoring required physical properties.
//
// An Optimizer (and its memo) serves one query; the set of partial
// optimization results is reinitialized for each query being optimized,
// as in the paper.
type Optimizer struct {
	model Model
	memo  *Memo
	opts  Options
	stats Stats
	ctx   *RuleContext
	// tracer receives structured search-trace events; nil when tracing
	// is off.
	tracer Tracer
	// bud is the armed budget of the current optimization call; nil
	// when neither the context nor the options bound the search.
	bud *budgetState
	// seedFallback is a complete plan captured from the seed planner,
	// kept as the degradation floor for anytime returns.
	seedFallback *Plan
	// pol is the state of a stochastic search policy run (selection
	// tree and random stream); nil for exhaustive runs. See policy.go.
	pol *policyState
	// batch is collectMoves' scratch for the moves of one extension.
	batch []Move
	// eng is the branch-and-bound search instantiated for the model's
	// cost type (CostSpace.engine).
	eng engine
}

// engine is the branch-and-bound search compiled for one cost type: the
// strategies OptimizeWithLimitCtx dispatches to, from the paper's
// FindBestPlan down to the cost arithmetic, with limits, partial sums
// and floors held as values of that type.
type engine interface {
	// optimize runs the configured strategy for one root goal under an
	// inclusive limit.
	optimize(root GroupID, required PhysProps, limit Cost) *Plan
}

// search is the engine for cost type C. It embeds the optimizer whose
// memo, options and counters it works on.
type search[C CostADT[C]] struct {
	*Optimizer
	cs *costSpace[C]
	// lower is the model's admissible cost floor, when it provides one
	// (see LowerBounder); nil otherwise.
	lower LowerBounder[C]
	// inProps is pursueAlgorithm's scratch for the delivered vectors it
	// hands a rule's Delivered function.
	inProps []PhysProps
}

// newSearch instantiates the engine for cost type C over o's model. It
// panics, naming the rule, when a rule's or enforcer's cost function was
// registered for another cost type.
func newSearch[C CostADT[C]](o *Optimizer, cs *costSpace[C]) *search[C] {
	m := o.model
	for _, r := range m.ImplementationRules() {
		if _, ok := r.Cost.(AlgCostFunc[C]); !ok {
			panic(fmt.Sprintf("core: model %s: implementation rule %s has cost function %T; the model's cost type is %T",
				m.Name(), r.Name, r.Cost, cs.zero))
		}
	}
	for _, e := range m.Enforcers() {
		if _, ok := e.Cost.(EnfCostFunc[C]); !ok {
			panic(fmt.Sprintf("core: model %s: enforcer %s has cost function %T; the model's cost type is %T",
				m.Name(), e.Name, e.Cost, cs.zero))
		}
	}
	lower, _ := m.(LowerBounder[C])
	return &search[C]{Optimizer: o, cs: cs, lower: lower}
}

// NewOptimizer creates an optimizer for the model. opts may be nil for
// the default (exhaustive, pruned, memoizing) configuration. NewOptimizer
// panics unless a non-nil opts satisfies Options.Validate and every rule
// and enforcer cost function returns the cost type Costs declares.
func NewOptimizer(model Model, opts *Options) *Optimizer {
	if n := len(model.TransformationRules()); n > MaxTransformRules {
		panic(fmt.Sprintf("core: model %s declares %d transformation rules; max is %d",
			model.Name(), n, MaxTransformRules))
	}
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	o := &Optimizer{model: model}
	if opts != nil {
		o.opts = *opts
	}
	o.tracer = o.opts.Trace.Tracer
	o.memo = NewMemo(model, &o.opts, &o.stats)
	o.ctx = &RuleContext{Memo: o.memo, Model: model}
	o.eng = o.memo.costs.engine(o)
	return o
}

// Memo returns the optimizer's memo for inspection.
func (o *Optimizer) Memo() *Memo { return o.memo }

// Stats returns the search-effort counters accumulated so far.
func (o *Optimizer) Stats() *Stats { return &o.stats }

// InsertQuery loads a user query — an algebra expression (tree) of
// logical operators — into the memo and returns its equivalence class.
func (o *Optimizer) InsertQuery(t *ExprTree) GroupID {
	return o.memo.InsertTree(t, InvalidGroup)
}

// Rederive rebinds the optimizer, between optimization calls, to model:
// the same data model under other estimates, such as another selectivity
// for a runtime parameter. model must declare the same transformation
// rules in the same order; explored flags and fired-rule marks stay,
// since rule conditions read only schemas (see TransformRule.Condition).
// Every live class's logical properties are derived again from its first
// expression, in class-ID order, so a class's founding inputs (older
// classes) are re-derived before it. A class is stale when its properties
// differ (by PropsEqualer; without it every class is) or when a live
// member consumes a stale class. Changed classes take the new property
// objects — the old ones stay intact for plans already built — and every
// stale class drops its winners, failures, matches, move sets and floor.
// Rederive returns the number of live classes kept. Like NewOptimizer, it
// panics when a cost function does not return the model's cost type.
func (o *Optimizer) Rederive(model Model) int {
	m := o.memo
	if len(model.TransformationRules()) != len(m.model.TransformationRules()) {
		panic("core: Rederive: the model's transformation rules differ from the memo's")
	}
	o.model, m.model, o.ctx.Model, m.ctx.Model = model, model, model, model
	m.costs = model.Costs()
	o.eng = m.costs.engine(o)
	o.seedFallback = nil

	stale := make([]bool, len(m.groups))
	var work []*Group
	live := 0
	for i, g := range m.groups {
		if m.parent[i] != g.id {
			continue
		}
		live++
		e := g.exprs[0]
		in := m.props[:0]
		for _, c := range e.Inputs {
			in = append(in, m.Group(c).logProps)
		}
		m.props = in
		lp := model.DeriveLogicalProps(e.Op, in)
		if eq, ok := lp.(PropsEqualer); ok && eq.Equal(g.logProps) {
			continue
		}
		g.logProps = lp
		stale[i] = true
		work = append(work, g)
	}
	for len(work) > 0 {
		g := work[len(work)-1]
		work = work[:len(work)-1]
		g.winners, g.moveSets, g.floor, g.floorSet = nil, nil, nil, false
		g.resetMatches(m.mergeEpoch)
		for _, p := range g.parents {
			if pg := m.Find(p.group); !p.dead && !stale[pg-1] {
				stale[pg-1] = true
				work = append(work, m.groups[pg-1])
			}
		}
		live--
	}
	return live
}

// ExploreCtx expands the class and everything it references to
// transformation-rule fixpoint without any algorithm selection or cost
// analysis. This is the extreme point the paper mentions — transforming
// a logical expression without cost analysis, covering the
// optimizations Starburst separates into its query rewrite level —
// available here as a choice, not a mandate. Cancellation and the
// configured Budget stop the expansion with a typed budget error.
func (o *Optimizer) ExploreCtx(ctx context.Context, g GroupID) error {
	if g == InvalidGroup {
		// Query insertion itself failed (e.g. expression budget).
		if err := o.memo.Err(); err != nil {
			return err
		}
		return ErrBudget
	}
	o.armBudget(ctx)
	m := o.memo
	// The root's rule patterns need not bind every class below it — a
	// substitute born with rules off binds no deeper than its own
	// inputs — so walk every class reachable from the root. Exploring one
	// class can re-open another (markStale): walk until a pass finds
	// every reachable class explored.
	for open := true; open && m.err == nil; {
		open = false
		seen := make(map[GroupID]bool)
		stack := []GroupID{g}
		for len(stack) > 0 && m.err == nil {
			id := m.Find(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if seen[id] {
				continue
			}
			seen[id] = true
			if grp := m.groups[id-1]; !grp.explored {
				m.exploreGroup(grp)
				open = true
			}
			for _, e := range m.groups[m.Find(id)-1].exprs {
				if !e.dead {
					stack = append(stack, e.Inputs...)
				}
			}
		}
	}
	if err := m.err; err != nil && errors.Is(err, ErrBudget) {
		o.stats.StopReason = err
	}
	return m.err
}

// Optimize finds the cheapest plan for the class that delivers the
// required physical properties (nil means no requirement). It is the
// original invocation of the paper's FindBestPlan, with the cost limit
// set to infinity and no cancellation.
func (o *Optimizer) Optimize(root GroupID, required PhysProps) (*Plan, error) {
	return o.OptimizeWithLimitCtx(context.Background(), root, required, o.memo.costs.Infinite())
}

// OptimizeCtx is Optimize under a context: cancellation (and a context
// deadline) stops the search with the anytime degradation described on
// OptimizeWithLimitCtx.
func (o *Optimizer) OptimizeCtx(ctx context.Context, root GroupID, required PhysProps) (*Plan, error) {
	return o.OptimizeWithLimitCtx(ctx, root, required, o.memo.costs.Infinite())
}

// OptimizeWithLimitCtx is Optimize with a caller-supplied cost limit; a
// user interface may set a finite limit to "catch" unreasonable queries.
// The limit is inclusive: a plan costing exactly the limit is within it,
// so a limit equal to the optimum's cost returns the optimum (CostADT's
// exact arithmetic makes that hold). With a SeedPlanner the search runs
// one stage under the seed's cost when that is below the limit, and a
// second under the limit only when the seed's stage finds no plan.
//
// The return contract distinguishes three outcomes:
//
//   - (plan, nil): the search ran to completion; plan is optimal within
//     the limit.
//   - (nil, nil): the search ran to completion and proved that no plan
//     within the limit exists. Under a stochastic Search.Policy the
//     proof is weaker — the policy cannot certify absence, so it
//     returns the best vetted fallback plan instead, and (nil, nil)
//     only means not even a fallback within the limit exists.
//   - (plan?, err) with errors.Is(err, ErrBudget): the context was
//     canceled or a Budget bound was exhausted. The search degrades
//     gracefully instead of failing: plan, when non-nil, is the cheapest
//     complete, consistency-checked plan known at the stop — what the
//     interrupted search returned, the root winner found so far, the
//     seed plan, or the query as written — so it never costs more than
//     the seed floor (Stats.SeedFloorCost) when one was captured.
//     Stats.StopReason records what stopped the search, and
//     Stats.AnytimeFallback that a fallback beat the search's own plan.
//     plan is nil only when not even a fallback plan within the limit
//     exists.
//
// Any other error (a model inconsistency surfaced through the memo) is
// returned with a nil plan.
func (o *Optimizer) OptimizeWithLimitCtx(ctx context.Context, root GroupID, required PhysProps, limit Cost) (*Plan, error) {
	if root == InvalidGroup {
		if err := o.memo.Err(); err != nil {
			return nil, err
		}
		return nil, ErrBudget
	}
	if required == nil {
		required = o.model.AnyProps()
	}
	o.armBudget(ctx)
	if o.bud != nil && o.memo.err == nil {
		// An already-expired context or deadline stops the search before
		// it starts; the anytime path below still produces a plan.
		if err := o.bud.poll(); err != nil {
			o.memo.err = err
		}
	}
	var plan *Plan
	if o.memo.err == nil {
		plan = o.eng.optimize(root, required, limit)
	}
	if b := o.memo.MemoryBytes(); b > o.stats.PeakMemoBytes {
		o.stats.PeakMemoBytes = b
	}
	err := o.memo.Err()
	if err == nil {
		// A nil plan here is definitive: the completed search proved no
		// plan within the limit exists. This is the engine's only
		// (nil, nil) return.
		return plan, nil
	}
	if !errors.Is(err, ErrBudget) {
		return nil, err
	}
	// Anytime degradation: surface the best complete plan known at the
	// stop alongside the typed budget error.
	o.stats.StopReason = err
	plan = o.withFallback(root, required, limit, plan)
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Kind: TraceBudgetStop, Group: root,
			Required: required, Steps: o.stats.Steps(), Err: err})
	}
	return plan, err
}

// optimize dispatches a root goal to the configured strategy: a
// stochastic policy, glue mode, guided search, or the paper's
// FindBestPlan. The limit must hold the model's cost type.
func (o *search[C]) optimize(root GroupID, required PhysProps, limit Cost) *Plan {
	lim := limit.(C)
	switch {
	case o.opts.Search.Policy != PolicyExhaustive:
		return o.policyOptimize(root, required, lim)
	case o.opts.Search.GlueMode:
		return o.glueOptimize(root, required, lim)
	case o.opts.Guidance.SeedPlanner != nil:
		return o.guidedOptimize(root, required, lim)
	}
	p, _ := o.findBestPlan(root, required, nil, lim, true)
	return p
}

// withFallback is the one place the anytime floor is enforced: on every
// budget stop, and when a stochastic policy finishes, it returns the
// cheaper of the plan the search produced (possibly nil) and
// anytimeFallback's candidate, and sets Stats.AnytimeFallback when the
// fallback wins.
func (o *Optimizer) withFallback(root GroupID, required PhysProps, limit Cost, plan *Plan) *Plan {
	if fb := o.anytimeFallback(root, required, limit); fb != nil && (plan == nil || o.memo.costs.Less(fb.Cost, plan.Cost)) {
		o.stats.AnytimeFallback = true
		return fb
	}
	return plan
}

// anytimeFallback produces the fallback candidate for a degraded result:
// the cheapest of the root winner recorded so far, the seed planner's
// complete plan if it captured one, and — as the last resort — the query
// costed as written with transformations disabled. Every candidate is a
// complete, consistency-checked plan; candidates not covering the
// requirement or exceeding the caller's limit are rejected, and nil is
// returned only when no fallback within the limit exists. Taking the
// minimum guarantees that, when the seed floor exists, the degraded
// result never costs more than the floor.
func (o *Optimizer) anytimeFallback(root GroupID, required PhysProps, limit Cost) *Plan {
	var best *Plan
	cs := o.memo.costs
	offer := func(p *Plan) {
		if p != nil && !cs.Less(limit, p.Cost) && (best == nil || cs.Less(p.Cost, best.Cost)) {
			best = p
		}
	}
	g := o.memo.Group(root)
	if w := g.lookupWinner(required, nil); w != nil && w.plan != nil {
		offer(w.plan)
	}
	if p := o.seedFallback; p != nil && p.Delivered != nil && p.Delivered.Covers(required) {
		offer(p)
	}
	if best == nil {
		offer(o.syntacticPlan(root, required))
	}
	return best
}

// Budgeted reports whether the current (or most recent) optimization
// call runs under an armed budget — a cancelable context, a deadline, or
// any Budget bound. Seed planners use it to decide whether materializing
// a complete floor plan is worth the extra work: without a budget the
// floor can never be needed, and relopt's planner seeds the shapes its
// greedy pass declines only then.
func (o *Optimizer) Budgeted() bool { return o.bud != nil }

// floor returns the memoized admissible cost floor for a class; ok is
// false when the model declines. The floor is boxed once, when the class
// stores it. Only called when o.lower is non-nil.
func (o *search[C]) floor(g *Group) (lb C, ok bool) {
	if !g.floorSet {
		if lb, ok := o.lower.LowerBound(g.logProps); ok {
			g.floor = lb
		}
		g.floorSet = true
	}
	lb, ok = g.floor.(C)
	return lb, ok
}

// goal carries the mutable state of one FindBestPlan activation.
type goal[C CostADT[C]] struct {
	required PhysProps
	excluded PhysProps
	// limit is the branch-and-bound bound; it tightens as complete
	// plans are found.
	limit C
	best  *Plan
	// bestCost is best's cost, as a value.
	bestCost C
	// inclusive makes the bound admit plans costing exactly limit.
	// Seeded limits are inclusive: the seed's cost is achievable, so an
	// optimal plan equal to it must not be pruned. The flag clears as
	// soon as an incumbent plan is installed — from then on only
	// strictly cheaper plans are improvements.
	inclusive bool
	// transient is set when a failure was (possibly) caused by an
	// in-progress cycle or budget stop, making it unsafe to memoize.
	transient bool
	// policy routes input optimizations through the stochastic policy's
	// rolloutGoal instead of the exhaustive findBestPlan (see policy.go).
	policy bool
}

// optimizeInput optimizes one input goal of a pursued move, dispatching
// to the engine the enclosing goal runs under: the exhaustive
// FindBestPlan, or — inside a stochastic policy episode — a rollout
// that itself pursues one selected move.
func (o *search[C]) optimizeInput(s *goal[C], gid GroupID, required, excluded PhysProps, limit C) (*Plan, bool) {
	if s.policy {
		return o.rolloutGoal(gid, required, excluded, limit, s.inclusive)
	}
	return o.findBestPlan(gid, required, excluded, limit, s.inclusive)
}

// findBestPlan is the paper's FindBestPlan (Figure 2) extended with the
// excluding physical property vector used for enforcer inputs. It
// returns the best plan within limit, or nil; transient reports that a
// nil result must not be treated as a definitive failure. inclusive
// widens the bound to admit plans costing exactly limit (seeded limits);
// input goals inherit the inclusivity their parent goal has at the time
// they are optimized.
func (o *search[C]) findBestPlan(gid GroupID, required, excluded PhysProps, limit C, inclusive bool) (plan *Plan, transient bool) {
	if o.memo.err != nil {
		return nil, true
	}
	gid = o.memo.Find(gid)
	g := o.memo.groups[gid-1]

	// The property fingerprint is computed once per goal and reused for
	// every winner-table access below.
	wk := winnerKey(required, excluded)

	// First part: answer from the look-up table when possible.
	if w := g.lookupWinnerKeyed(wk, required, excluded); w != nil {
		if w.inProgress {
			return nil, true
		}
		if w.plan != nil {
			o.stats.WinnerHits++
			if le(w.plan.Cost.(C), limit) {
				return w.plan, false
			}
			// The recorded plan is optimal; a tighter limit cannot
			// be met by any other plan.
			return nil, false
		}
		if !o.opts.Search.NoFailureMemo && w.failedLimit != nil {
			// A recorded failure at limit F certifies that no plan
			// costs strictly less than F. An exclusive query at
			// limit <= F is therefore hopeless; an inclusive query
			// additionally admits cost == limit, so it may reuse the
			// failure only when limit < F strictly.
			if f := w.failedLimit.(C); le(limit, f) && (!inclusive || limit.Less(f)) {
				o.stats.FailureHits++
				return nil, false
			}
		}
	}

	// An admissible cost floor can refute the goal outright: when even
	// the floor breaks the bound, no plan within the limit exists, and
	// the class need not be explored nor its moves collected at all.
	// This is where a finite seeded limit saves work that incumbent-
	// driven pruning cannot: it is in force before any plan exists.
	if o.lower != nil && !o.opts.Search.NoPruning {
		if lb, ok := o.floor(g); ok {
			if inclusive && limit.Less(lb) || !inclusive && le(limit, lb) {
				o.stats.GoalsPruned++
				return nil, false
			}
		}
	}

	// Else: optimization required.
	w := g.ensureWinnerKeyed(wk, required, excluded)
	w.inProgress = true
	defer func() {
		w.inProgress = false
		// The class may have merged away mid-search, carrying the
		// in-progress mark onto the representative's entry; release that
		// surviving entry too. The comparison must be against the entry
		// itself, not the group: the fixpoint loop reassigns g to the
		// representative, so a group comparison never sees the merge and
		// the carried mark would pin the goal "in progress" forever —
		// every later optimization of an equivalent root would read the
		// stale mark as a cycle and report no plan.
		if cw := o.memo.Group(gid).lookupWinnerKeyed(wk, required, excluded); cw != nil && cw != w {
			cw.inProgress = false
		}
	}()
	o.stats.GoalsOptimized++
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Kind: TraceGoalBegin, Group: gid,
			Required: required, Excluded: excluded, Limit: limit})
	}

	// Incremental move collection: moves are cached per (class,
	// requirement) with a watermark, so each fixpoint iteration turns only
	// the class matches added since the last pass into moves, and a goal
	// re-activation replays the cached moves. A merge anywhere in the memo
	// voids the cache: through the enlarged class, already-matched
	// expressions may bind anew. NoIncremental voids the class's matches
	// and the set on every iteration, which MoveFilter heuristics need
	// (Options.Validate enforces the pairing).
	incremental := !o.opts.Search.NoIncremental
	mk := keyOf(required)

	s := &goal[C]{required: required, excluded: excluded, limit: limit, inclusive: inclusive}
	// done is this activation's pursuit frontier into the cached move
	// set: moves[:done] have been pursued. It resets when the cache is
	// voided or the class merges onto another (curMS/curGen detect
	// both), re-pursuing the fresh collection.
	var (
		done   int
		curMS  *moveSet
		curGen uint32
	)
	for {
		o.memo.exploreGroup(o.memo.groups[o.memo.Find(gid)-1])
		if o.memo.err != nil {
			s.transient = true
			break
		}
		// Resolved after exploring, so a class that merged away during
		// its own exploration never opens a move set.
		gid = o.memo.Find(gid)
		g = o.memo.groups[gid-1]
		nExprs := len(g.exprs)

		ms := g.ensureMoveSet(mk, required)
		if ms != curMS || ms.gen != curGen {
			done = 0
		}
		if !incremental {
			g.resetMatches(o.memo.mergeEpoch)
		}
		if ms.epoch != o.memo.mergeEpoch || !incremental {
			ms.reset(o.memo.mergeEpoch)
			done = 0
		}
		if done == 0 && len(ms.moves) > 0 {
			o.stats.MovesReused += len(ms.moves)
		}
		o.collectMoves(ms, g, required)
		curMS, curGen = ms, ms.gen
		moves := ms.moves[done:]
		done = len(ms.moves)
		if f := o.opts.Search.MoveFilter; f != nil {
			moves = f(slices.Clone(moves))
		}
		for i := range moves {
			// The budget checkpoint charges each pursued move; on
			// exhaustion the sticky memo error unwinds every active
			// goal transiently, keeping partial results unmemoized.
			if o.bud != nil {
				if err := o.bud.step(); err != nil {
					o.memo.err = err
					s.transient = true
					break
				}
			}
			if o.tracer != nil {
				o.tracer.Trace(TraceEvent{Kind: TraceMovePursued, Group: gid,
					Required: required, Move: moves[i].Name(), MoveKind: moves[i].Kind})
			}
			switch moves[i].Kind {
			case MoveAlgorithm:
				o.pursueAlgorithm(s, g, &moves[i])
			case MoveEnforcer:
				o.pursueEnforcer(s, g, moves[i].Enforcer)
			}
			if o.memo.err != nil {
				s.transient = true
				break
			}
		}

		// Child optimizations can enlarge or merge this class (new
		// equivalent expressions discovered through other classes);
		// re-collect moves until the class is stable so the search
		// stays exhaustive. The incremental cache must also be drained:
		// a nested goal sharing it may have appended moves this
		// activation has not pursued yet.
		cur := o.memo.Find(gid)
		cg := o.memo.groups[cur-1]
		if cur == gid && cg.explored && len(cg.exprs) == nExprs &&
			(!incremental || curMS.gen == curGen && done == len(curMS.moves)) {
			break
		}
	}

	// Maintain the look-up table of explored facts: optimal plans and
	// failures are both interesting with respect to possible future use.
	// A budget-interrupted activation still records (and returns) its
	// best complete plan — the anytime result — but never memoizes a
	// failure, since the search was not exhaustive.
	gid = o.memo.Find(gid)
	fw := o.memo.groups[gid-1].ensureWinnerKeyed(wk, required, excluded)
	if s.best != nil {
		if fw.plan == nil || s.bestCost.Less(fw.plan.Cost.(C)) {
			fw.plan = s.best
		}
		if o.tracer != nil {
			o.tracer.Trace(TraceEvent{Kind: TraceWinner, Group: gid,
				Required: required, Cost: fw.plan.Cost, Plan: fw.plan})
			o.tracer.Trace(TraceEvent{Kind: TraceGoalEnd, Group: gid,
				Required: required, Cost: fw.plan.Cost})
		}
		if le(fw.plan.Cost.(C), limit) {
			return fw.plan, false
		}
		return nil, false
	}
	if !s.transient {
		o.stats.GoalsPruned++
		if !o.opts.Search.NoFailureMemo {
			if fw.failedLimit == nil || fw.failedLimit.(C).Less(limit) {
				fw.failedLimit = limit
			}
			if o.tracer != nil {
				o.tracer.Trace(TraceEvent{Kind: TraceFailure, Group: gid,
					Required: required, Limit: limit})
			}
		}
	}
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Kind: TraceGoalEnd, Group: gid, Required: required})
	}
	return nil, s.transient
}

// collectMoves extends a move set — the possible moves for one goal:
// algorithms that can deliver the required properties and enforcers for
// them — to cover the class's current expression list. (Transformations,
// the third move kind of Figure 2, are applied to fixpoint by
// exploreGroup, which is equivalent under exhaustive search.) The class's
// implementation rules are matched only against expressions past the
// class's watermark, once for every requirement; the set then runs
// Applicability over the class matches past its own watermark, rule by
// rule in expression order, and adds the enforcer moves, which depend
// only on the requirement, exactly once. Each extension batch is
// promise-ordered; earlier batches are left untouched so pursuit indexes
// into them stay valid.
func (o *Optimizer) collectMoves(ms *moveSet, g *Group, required PhysProps) {
	m := o.memo
	if g.matchEpoch != m.mergeEpoch {
		g.resetMatches(m.mergeEpoch)
	}
	first := ms.matched == 0 && len(ms.moves) == 0
	if !first && int(g.matched) == len(g.exprs) && int(ms.matched) == len(g.matches) {
		return
	}
	rules := o.model.ImplementationRules()
	if base := int(g.matched); base < len(g.exprs) {
		// m.flat[i-base] is the first match of exprs[i] in this extension.
		m.flat = append(m.flat[:0], make([]*implMatch, len(g.exprs)-base)...)
		for ri, rule := range rules {
			for i := base; i < len(g.exprs); i++ {
				e := g.exprs[i]
				// The O(1) root test screens the pair before it counts as a
				// match attempt — same convention as exploreGroup.
				if e.dead || !kindMatches(rule.Pattern.Kind, e.Op.Kind()) ||
					len(rule.Pattern.Children) != len(e.Inputs) {
					continue
				}
				o.stats.MatchCalls++
				m.matchBindings(e, rule.Pattern, func(b *Binding) bool {
					if rule.Condition == nil || rule.Condition(o.ctx, b) {
						g.matches = append(g.matches, m.newMatch(ri, b, i-base))
					}
					return true
				})
			}
		}
		g.matched = int32(len(g.exprs))
	}
	batch := o.batch[:0]
	for ri, rule := range rules {
		for _, im := range g.matches[ms.matched:] {
			if im.rule != ri {
				continue
			}
			if alts, ok := rule.Applicability(o.ctx, im.b, required); ok && len(alts) > 0 {
				batch = append(batch, Move{Kind: MoveAlgorithm, Rule: rule, Alts: alts, match: im})
			}
		}
	}
	ms.matched = int32(len(g.matches))
	if first {
		for _, enf := range o.model.Enforcers() {
			batch = append(batch, Move{Kind: MoveEnforcer, Enforcer: enf})
		}
	}
	o.batch = batch
	if len(batch) > 0 {
		slices.SortStableFunc(batch, byPromise)
		ms.moves = append(append(make([]Move, 0, len(ms.moves)+len(batch)), ms.moves...), batch...)
	}
}

// newMatch records binding b of implementation rule ri, rooted at the
// k-th expression of the extension under way, as a class match. A binding
// of leaves alone is the same for every rule matching its expression, so
// it shares the clone of the expression's first match when they agree.
func (m *Memo) newMatch(ri int, b *Binding, k int) *implMatch {
	im := &m.matches.take(1)[0]
	im.rule = ri
	if k < len(m.flat) {
		if f := m.flat[k]; f != nil && sameLeafBinding(f.b, b) {
			im.b = f.b
			return im
		}
		if m.flat[k] == nil {
			m.flat[k] = im
		}
	}
	im.b = m.cloneBinding(b)
	return im
}

// sameLeafBinding reports whether a and b bind the same expression with
// leaves alone, on the same classes.
func sameLeafBinding(a, b *Binding) bool {
	if a.Expr != b.Expr || a.Group != b.Group || len(a.Children) != len(b.Children) {
		return false
	}
	for i, c := range b.Children {
		if c.Expr != nil || a.Children[i].Expr != nil || c.Group != a.Children[i].Group {
			return false
		}
	}
	return true
}

// byPromise orders moves by descending promise; sorted stably, moves of
// equal promise keep their collection order.
func byPromise(a, b Move) int { return cmp.Compare(b.Promise(), a.Promise()) }

// prune reports whether a partial cost already reaches the bound; such
// moves cannot lead to a better plan and are abandoned. An inclusive
// goal admits partial costs equal to the bound — a complete plan at
// exactly the (seeded) limit is acceptable.
func (o *search[C]) prune(s *goal[C], partial C) bool {
	if o.opts.Search.NoPruning {
		return false
	}
	if s.inclusive {
		if s.limit.Less(partial) {
			o.stats.Pruned++
			return true
		}
		return false
	}
	if le(s.limit, partial) {
		o.stats.Pruned++
		return true
	}
	return false
}

// childLimit is the cost limit passed down when optimizing an input:
// the remaining budget after the partial cost accumulated so far. The
// caller has already pruned a partial cost beyond the bound, so the
// remainder is never negative, and exact cost arithmetic makes it
// exactly what the input may spend.
func (o *search[C]) childLimit(s *goal[C], partial C) C {
	if o.opts.Search.NoPruning {
		return o.cs.inf
	}
	return s.limit.Sub(partial)
}

// offer installs a complete plan as the goal's best if it improves on
// the current one, tightening the branch-and-bound limit. Once an
// incumbent exists the bound turns exclusive: only strictly cheaper
// plans remain interesting. cost is p's cost, as a value.
func (o *search[C]) offer(s *goal[C], p *Plan, cost C) {
	if s.best == nil || cost.Less(s.bestCost) {
		s.best, s.bestCost = p, cost
		if !o.opts.Search.NoPruning && (cost.Less(s.limit) || (s.inclusive && le(cost, s.limit))) {
			s.limit = cost
		}
		s.inclusive = false
	}
}

// pursueAlgorithm explores one algorithm move: for each acceptable input
// property combination, cost the algorithm, optimize each input under
// the remaining budget, and offer the completed plan. The input plans
// are collected on the stack; only an offered plan gets a vector of its
// own.
func (o *search[C]) pursueAlgorithm(s *goal[C], g *Group, mv *Move) {
	o.stats.AlgorithmMoves++
	rule, b := mv.Rule, mv.match.b
	cost := rule.Cost.(AlgCostFunc[C])
	var buf [4]GroupID
	leaves := b.Leaves(buf[:0])
	// Admissible input floors sharpen the bound: every input will cost
	// at least its floor, so inputs not yet optimized are charged their
	// floors both when pruning and when budgeting a sibling's limit.
	floored := o.lower != nil && !o.opts.Search.NoPruning
	var inBuf [4]*Plan
	for _, alt := range mv.Alts {
		if len(alt.Required) != len(leaves) {
			panic(fmt.Sprintf("core: rule %s returned %d input requirements for %d inputs",
				rule.Name, len(alt.Required), len(leaves)))
		}
		total := cost(o.ctx, b, s.required, alt)
		// rest is the floor mass of the inputs still to be optimized; it
		// shrinks as each input's actual cost is folded into total.
		var rest C
		charged := total
		if floored {
			rest = o.matchFloor(mv.match)
			charged = total.Add(rest)
		}
		if o.prune(s, charged) {
			o.stats.MovesSkipped++
			if o.tracer != nil {
				o.tracer.Trace(TraceEvent{Kind: TraceMoveSkipped, Group: g.id,
					Required: s.required, Move: rule.Name, MoveKind: MoveAlgorithm})
			}
			continue
		}
		in := inBuf[:0]
		ok := true
		for i, leaf := range leaves {
			childReq := alt.Required[i]
			if o.opts.Search.GlueMode {
				childReq = o.model.AnyProps()
			}
			partial := total
			if floored {
				rest = rest.Sub(o.inputFloor(leaf))
				partial = total.Add(rest)
			}
			p, tr := o.optimizeInput(s, leaf, childReq, nil, o.childLimit(s, partial))
			if p == nil {
				s.transient = s.transient || tr
				ok = false
				break
			}
			if o.opts.Search.GlueMode {
				// Starburst-style glue: patch the input up to the
				// algorithm's needs after the fact.
				p, ok = o.wrapWithEnforcers(p, alt.Required[i], 0)
				if !ok {
					break
				}
			}
			total = total.Add(p.Cost.(C))
			charged = total
			if floored {
				charged = total.Add(rest)
			}
			if o.prune(s, charged) {
				if o.tracer != nil {
					o.tracer.Trace(TraceEvent{Kind: TraceMovePruned, Group: g.id,
						Required: s.required, Move: rule.Name, MoveKind: MoveAlgorithm})
				}
				ok = false
				break
			}
			in = append(in, p)
		}
		if !ok {
			continue
		}
		delivered := s.required
		if rule.Delivered != nil {
			props := o.inProps[:0]
			for _, p := range in {
				props = append(props, p.Delivered)
			}
			o.inProps = props
			delivered = rule.Delivered(o.ctx, b, s.required, alt, props)
		}
		if !delivered.Covers(s.required) {
			// The paper's consistency check: the physical properties
			// of a chosen plan really must satisfy the goal's vector.
			o.stats.ConsistencyViolations++
			if o.tracer != nil {
				o.tracer.Trace(TraceEvent{Kind: TraceViolation, Group: g.id,
					Required: s.required, Delivered: delivered,
					Move: rule.Name, MoveKind: MoveAlgorithm})
			}
			continue
		}
		if s.excluded != nil && delivered.Covers(s.excluded) {
			// The provision that algorithms do not qualify
			// redundantly: a plan that satisfies the excluded
			// properties by itself must not feed the enforcer that
			// establishes them (merge-join must not be considered as
			// input to the sort). Algorithms that merely pass the
			// requirement through, such as filter, are unaffected —
			// their delivered vector reflects their actual input.
			o.stats.Pruned++
			continue
		}
		o.offer(s, &Plan{
			Op:        rule.Build(o.ctx, b, s.required, alt),
			Inputs:    append([]*Plan(nil), in...),
			Delivered: delivered,
			Cost:      total,
			Group:     g.id,
			LogProps:  g.logProps,
		}, total)
	}
}

// matchFloor returns the sum of the admissible floors of a class match's
// inputs. Class floors are memoized; their sum is a few additions of
// values, so it is recomputed rather than stored with the match.
func (o *search[C]) matchFloor(im *implMatch) C {
	// Zero is the additive identity: the sum starts at the first floor.
	sum := o.cs.zero
	var buf [4]GroupID
	for i, leaf := range im.b.Leaves(buf[:0]) {
		if i == 0 {
			sum = o.inputFloor(leaf)
		} else {
			sum = sum.Add(o.inputFloor(leaf))
		}
	}
	return sum
}

// inputFloor is the floor charged for an input class not yet optimized:
// its admissible floor, or zero when the model declines.
func (o *search[C]) inputFloor(g GroupID) C {
	if o.lower != nil {
		if lb, ok := o.floor(o.memo.groups[o.memo.Find(g)-1]); ok {
			return lb
		}
	}
	return o.cs.zero
}

// pursueEnforcer explores one enforcer move: relax the required vector,
// optimize the same class for the relaxed vector — excluding algorithms
// that already qualified for the original requirement — and stack the
// enforcer on top. The enforcer's cost is subtracted from the bound
// before the input is optimized, so pruning reaches into enforcer inputs.
func (o *search[C]) pursueEnforcer(s *goal[C], g *Group, enf *Enforcer) {
	relaxed, excl, ok := enf.Relax(o.ctx, g.logProps, s.required)
	if !ok {
		return
	}
	o.stats.EnforcerMoves++
	total := enf.Cost.(EnfCostFunc[C])(o.ctx, g.logProps, s.required)
	charged := total
	if o.lower != nil && !o.opts.Search.NoPruning {
		// The enforcer's input is this same class, so the class floor is
		// a sound advance charge for the input plan.
		if lb, ok := o.floor(g); ok {
			charged = total.Add(lb)
		}
	}
	if o.prune(s, charged) {
		o.stats.MovesSkipped++
		if o.tracer != nil {
			o.tracer.Trace(TraceEvent{Kind: TraceMoveSkipped, Group: g.id,
				Required: s.required, Move: enf.Name, MoveKind: MoveEnforcer})
		}
		return
	}
	in, tr := o.optimizeInput(s, g.id, relaxed, excl, o.childLimit(s, total))
	if in == nil {
		s.transient = s.transient || tr
		return
	}
	total = total.Add(in.Cost.(C))
	if o.prune(s, total) {
		if o.tracer != nil {
			o.tracer.Trace(TraceEvent{Kind: TraceMovePruned, Group: g.id,
				Required: s.required, Move: enf.Name, MoveKind: MoveEnforcer})
		}
		return
	}
	delivered := s.required
	if enf.Delivered != nil {
		delivered = enf.Delivered(o.ctx, s.required, in.Delivered)
	}
	if !delivered.Covers(s.required) {
		o.stats.ConsistencyViolations++
		if o.tracer != nil {
			o.tracer.Trace(TraceEvent{Kind: TraceViolation, Group: g.id,
				Required: s.required, Delivered: delivered,
				Move: enf.Name, MoveKind: MoveEnforcer})
		}
		return
	}
	if s.excluded != nil && delivered.Covers(s.excluded) {
		o.stats.Pruned++
		return
	}
	o.offer(s, &Plan{
		Op:        enf.Build(o.ctx, g.logProps, s.required),
		Inputs:    []*Plan{in},
		Delivered: delivered,
		Cost:      total,
		Group:     g.id,
		LogProps:  g.logProps,
	}, total)
}

// glueOptimize is the Starburst-style strategy used for ablation:
// optimize the class with no property requirement, then glue enforcers
// onto the winning plan to meet the real requirement, adding their cost
// to the plan after the fact instead of letting properties direct the
// search.
func (o *search[C]) glueOptimize(root GroupID, required PhysProps, limit C) *Plan {
	p, _ := o.findBestPlan(root, o.model.AnyProps(), nil, limit, true)
	if p == nil {
		return nil
	}
	wrapped, ok := o.wrapWithEnforcers(p, required, 0)
	if !ok {
		return nil
	}
	if !le(wrapped.Cost.(C), limit) {
		return nil
	}
	return wrapped
}

// wrapWithEnforcers stacks enforcers on a finished plan until it covers
// required. Depth is bounded: each enforcer establishes at least one
// property, and property vectors are finite.
func (o *search[C]) wrapWithEnforcers(p *Plan, required PhysProps, depth int) (*Plan, bool) {
	if p.Delivered.Covers(required) {
		return p, true
	}
	const maxEnforcerStack = 4
	if depth >= maxEnforcerStack {
		return nil, false
	}
	lp := p.LogProps
	for _, enf := range o.model.Enforcers() {
		relaxed, _, ok := enf.Relax(o.ctx, lp, required)
		if !ok {
			continue
		}
		in, ok := o.wrapWithEnforcers(p, relaxed, depth+1)
		if !ok {
			continue
		}
		delivered := required
		if enf.Delivered != nil {
			delivered = enf.Delivered(o.ctx, required, in.Delivered)
		}
		if !delivered.Covers(required) {
			continue
		}
		local := enf.Cost.(EnfCostFunc[C])(o.ctx, lp, required)
		return &Plan{
			Op:        enf.Build(o.ctx, lp, required),
			Inputs:    []*Plan{in},
			Delivered: delivered,
			Cost:      in.Cost.(C).Add(local),
			Group:     p.Group,
			LogProps:  lp,
		}, true
	}
	return nil, false
}
