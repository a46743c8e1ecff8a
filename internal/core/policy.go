package core

// Budgeted stochastic search policies for the 10–16-relation regime.
//
// The paper's directed dynamic programming is exhaustive: FindBestPlan
// pursues every move of every goal. Past ~9 relations the Figure-4
// sweep shows that exhaustiveness exceeding any interactive budget —
// the regime where industrial optimizers switch to a non-exhaustive
// escape hatch. The policies here run on the same memo, the same move
// collection, the same budget checkpoints, and the same winner tables
// as the exhaustive engine, but replace "pursue every move" with
// "pursue one selected move per goal per episode":
//
//   - PolicyMCTS: Monte-Carlo tree search. Each goal (class, required,
//     excluded) owns a node of a selection tree whose arms are the
//     goal's promise-ordered moves. The first visit descends greedily
//     by admissible floor priors (the LowerBounder floors that already
//     drive branch-and-bound), so the first episode is a greedy rollout
//     to a complete plan; later visits select by UCT over rewards
//     backed up from achieved plan costs, with an epsilon of seeded
//     random exploration.
//
//   - PolicyWidening: iterative widening. Pass p considers only the
//     first p+1 moves of each goal's promise-ordered list and pursues
//     the least-visited one, growing the prefix every pass. It is
//     deterministic across RandSeed values — the control arm for the
//     MCTS A/B.
//
// Rollouts commit completed sub-plans through the ordinary winner
// tables (ensureWinnerKeyed), for three reasons: later episodes reuse
// them as incumbents, tightening their branch-and-bound limits; the
// anytime fallback ladder finds the best root plan at a budget stop
// without any policy-specific bookkeeping; and plan extraction at the
// end is the same winner-table read the exhaustive engine uses. The
// relaxation is that a policy-committed winner is best-so-far, not
// proven optimal — sound here because an Optimizer serves one query
// under one configuration, and the exhaustive paths never run in a
// policy-configured optimizer.
//
// A stochastic policy cannot prove absence: where the exhaustive
// engine's (nil, nil) certifies that no plan within the limit exists,
// policyOptimize returns the best vetted fallback (seed floor or the
// query as written) instead, and nil only when no fallback exists.

import (
	"math"
	"math/rand"
)

const (
	// DefaultPolicyEpisodes is the rollout-episode bound when
	// Options.Search.Episodes is unset. Budgets usually stop the loop
	// first; the bound keeps unbudgeted policy runs finite.
	DefaultPolicyEpisodes = 64
	// uctExploration is the UCT exploration constant (√2).
	uctExploration = 1.4142135623730951
	// mctsEpsilon is the probability that MCTS selection ignores UCT
	// and pursues a uniformly random arm — the Monte-Carlo escape from
	// a misleading prior.
	mctsEpsilon = 0.1
)

// policyState is the per-optimizer state of a stochastic policy run.
type policyState struct {
	nodes map[polKey]*policyNode
	rng   *rand.Rand
	// episode is the 0-based index of the running episode; widening
	// derives its move-prefix width from it.
	episode int
}

// polKey addresses a selection-tree node: the canonical class plus the
// (required, excluded) property fingerprint — the same key the winner
// table uses. Collisions chain through policyNode.next.
type polKey struct {
	gid GroupID
	wk  physKey
}

// policyNode is one goal's node in the selection tree.
type policyNode struct {
	required PhysProps
	excluded PhysProps
	visits   int
	// arms parallels the goal's cached move set; ms/gen detect a voided
	// cache (merge) so stale arm statistics are dropped with it.
	arms []policyArm
	ms   *moveSet
	gen  uint32
	// best is the scalar metric of the cheapest complete plan achieved
	// at this node, the reference for rewards; +Inf until one exists.
	best float64
	// onPath guards against cyclic descents through merged classes.
	onPath bool
	next   *policyNode
}

// policyArm is the selection state of one move.
type policyArm struct {
	visits  int
	rewards float64
	// prior is the admissible optimistic cost metric of the move (local
	// cost plus input floors): NaN when the cost type has no metric,
	// +Inf when the move is known hopeless (an enforcer that declines).
	prior float64
}

// policyNode returns the selection-tree node for a goal, creating it on
// first visit. gid must be canonical (memo.Find applied); a class that
// merges away simply gets a fresh node under its representative.
func (o *Optimizer) policyNode(gid GroupID, wk physKey, required, excluded PhysProps) *policyNode {
	k := polKey{gid: gid, wk: wk}
	head := o.pol.nodes[k]
	for n := head; n != nil; n = n.next {
		if n.required.Equal(required) && sameExcluded(n.excluded, excluded) {
			return n
		}
	}
	n := &policyNode{required: required, excluded: excluded, best: math.Inf(1), next: head}
	o.pol.nodes[k] = n
	return n
}

// primeArms computes floor-based priors for arms[from:]. The prior of
// an algorithm move is the minimum over its input-property alternatives
// of local cost plus the admissible floors of its input classes — the
// same advance charge branch-and-bound uses — so the greedy first
// descent follows exactly the bound the exhaustive engine prunes with.
func (o *search[C]) primeArms(node *policyNode, g *Group, ms *moveSet, from int) {
	for i := from; i < len(ms.moves); i++ {
		a := &node.arms[i]
		a.prior = math.NaN()
		mv := &ms.moves[i]
		switch mv.Kind {
		case MoveAlgorithm:
			floorSum := o.matchFloor(mv.match)
			cost := mv.Rule.Cost.(AlgCostFunc[C])
			for _, alt := range mv.Alts {
				local := cost(o.ctx, mv.match.b, node.required, alt)
				if m, ok := costMetric(local.Add(floorSum)); ok {
					if math.IsNaN(a.prior) || m < a.prior {
						a.prior = m
					}
				}
			}
		case MoveEnforcer:
			if _, _, ok := mv.Enforcer.Relax(o.ctx, g.logProps, node.required); !ok {
				a.prior = math.Inf(1)
				continue
			}
			charged := mv.Enforcer.Cost.(EnfCostFunc[C])(o.ctx, g.logProps, node.required)
			if o.lower != nil {
				if lb, ok := o.floor(g); ok {
					charged = charged.Add(lb)
				}
			}
			if m, ok := costMetric(charged); ok {
				a.prior = m
			}
		}
	}
}

// knownPrior reports whether an arm's prior is a usable finite metric.
func knownPrior(p float64) bool { return !math.IsNaN(p) && !math.IsInf(p, 1) }

// selectArm picks the move to pursue this episode. Ties break toward
// the lower index, i.e. toward higher promise, keeping selection
// deterministic for a fixed random stream.
func (o *Optimizer) selectArm(node *policyNode) int {
	arms := node.arms
	if o.opts.Search.Policy == PolicyWidening {
		width := o.pol.episode + 1
		if width > len(arms) {
			width = len(arms)
		}
		best, bestV := 0, arms[0].visits
		for i := 1; i < width; i++ {
			if arms[i].visits < bestV {
				best, bestV = i, arms[i].visits
			}
		}
		return best
	}
	if node.visits == 0 {
		// Greedy-seeded first descent: the cheapest admissible prior,
		// falling back to promise order when the cost type has no
		// metric.
		best, bestP, found := 0, math.Inf(1), false
		for i := range arms {
			if knownPrior(arms[i].prior) && (!found || arms[i].prior < bestP) {
				best, bestP, found = i, arms[i].prior, true
			}
		}
		return best
	}
	if o.pol.rng.Float64() < mctsEpsilon {
		return o.pol.rng.Intn(len(arms))
	}
	lnN := math.Log(float64(node.visits) + 1)
	best, bestScore := 0, math.Inf(-1)
	for i := range arms {
		a := &arms[i]
		var exploit float64
		switch {
		case a.visits > 0:
			exploit = a.rewards / float64(a.visits)
		case knownPrior(a.prior) && a.prior > 0 && !math.IsInf(node.best, 1):
			// Optimism from the admissible prior: the arm cannot beat
			// its floor, so best/prior bounds its achievable reward
			// from above.
			exploit = node.best / a.prior
		case math.IsInf(a.prior, 1):
			exploit = 0
		default:
			exploit = 1
		}
		score := exploit + uctExploration*math.Sqrt(lnN/float64(a.visits+1))
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// rolloutGoal is the policy engine's FindBestPlan: optimize a goal by
// pursuing ONE selected move, recursing through optimizeInput so the
// whole descent is move-selected, then back the achieved cost up into
// the selection tree and commit any improvement through the winner
// table. The returned transient flag is true unless the failure is
// provable (floor refutation, or a goal with no moves at all): one arm
// per episode never certifies absence.
func (o *search[C]) rolloutGoal(gid GroupID, required, excluded PhysProps, limit C, inclusive bool) (*Plan, bool) {
	if o.memo.err != nil {
		return nil, true
	}
	gid = o.memo.Find(gid)
	g := o.memo.groups[gid-1]
	wk := winnerKey(required, excluded)

	// Floor refutation is sound regardless of policy: when even the
	// admissible floor breaks the bound, no plan within it exists.
	if o.lower != nil && !o.opts.Search.NoPruning {
		if lb, ok := o.floor(g); ok {
			if inclusive && limit.Less(lb) || !inclusive && le(limit, lb) {
				o.stats.GoalsPruned++
				return nil, false
			}
		}
	}

	o.memo.exploreGroup(g)
	if o.memo.err != nil {
		return nil, true
	}
	if ng := o.memo.Find(gid); ng != gid {
		gid = ng
		g = o.memo.groups[gid-1]
	}

	node := o.policyNode(gid, wk, required, excluded)
	if node.onPath {
		// A cyclic descent answers from the winner table or declines
		// transiently, like the exhaustive engine's in-progress check.
		if w := g.lookupWinnerKeyed(wk, required, excluded); w != nil && w.plan != nil && le(w.plan.Cost.(C), limit) {
			return w.plan, false
		}
		return nil, true
	}

	mk := keyOf(required)
	ms := g.ensureMoveSet(mk, required)
	if ms.epoch != o.memo.mergeEpoch {
		ms.reset(o.memo.mergeEpoch)
	}
	o.collectMoves(ms, g, required)
	if node.ms != ms || node.gen != ms.gen {
		// First visit, or a merge voided the cached moves the arms
		// indexed: (re)build the arm list, dropping stale statistics.
		node.ms, node.gen = ms, ms.gen
		node.arms = make([]policyArm, len(ms.moves))
		o.primeArms(node, g, ms, 0)
	} else if len(node.arms) < len(ms.moves) {
		from := len(node.arms)
		node.arms = append(node.arms, make([]policyArm, len(ms.moves)-from)...)
		o.primeArms(node, g, ms, from)
	}
	if len(node.arms) == 0 {
		// No algorithm applies and no enforcer helps: definitive, the
		// same no-moves failure the exhaustive engine records.
		return nil, false
	}

	// The goal's incumbent is the committed winner: the episode must
	// strictly improve on it, so branch-and-bound refutes worse arms
	// cheaply.
	s := &goal[C]{required: required, excluded: excluded, limit: limit, inclusive: inclusive, policy: true}
	if w := g.lookupWinnerKeyed(wk, required, excluded); w != nil && w.plan != nil && le(w.plan.Cost.(C), limit) {
		o.stats.WinnerHits++
		s.best, s.bestCost = w.plan, w.plan.Cost.(C)
		if !o.opts.Search.NoPruning {
			s.limit = s.bestCost
			s.inclusive = false
		}
	}
	prevBest := s.best

	o.stats.GoalsOptimized++
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Kind: TraceGoalBegin, Group: gid,
			Required: required, Excluded: excluded, Limit: limit})
	}

	arm := o.selectArm(node)
	mv := &ms.moves[arm]

	// The budget checkpoint charges the pursued move, exactly as the
	// exhaustive engine does; on exhaustion the sticky memo error
	// unwinds the whole episode.
	if o.bud != nil {
		if err := o.bud.step(); err != nil {
			o.memo.err = err
			return nil, true
		}
	}
	if o.tracer != nil {
		o.tracer.Trace(TraceEvent{Kind: TraceMovePursued, Group: gid,
			Required: required, Move: mv.Name(), MoveKind: mv.Kind})
	}
	node.onPath = true
	switch mv.Kind {
	case MoveAlgorithm:
		o.pursueAlgorithm(s, g, mv)
	case MoveEnforcer:
		o.pursueEnforcer(s, g, mv.Enforcer)
	}
	node.onPath = false

	// Back the outcome up the selection tree. An arm is rewarded only
	// when its pursuit strictly improved the goal's best plan; the
	// reward is the node's best-achieved metric over the achieved cost
	// (1 for the incumbent-setting improvement itself, less for costs
	// later improvements beat). Cost types without a metric degrade to
	// a 0/1 improvement reward.
	node.visits++
	a := &node.arms[arm]
	a.visits++
	if s.best != nil && s.best != prevBest {
		if m, ok := costMetric(s.best.Cost); ok {
			if m < node.best {
				node.best = m
			}
			if m > 0 {
				a.rewards += node.best / m
			} else {
				a.rewards++
			}
		} else {
			a.rewards++
		}
	}

	// Commit improvements through the memo: later episodes reuse them
	// as incumbents and the anytime ladder serves them at a stop.
	if ng := o.memo.Find(gid); ng != gid {
		gid = ng
	}
	fw := o.memo.groups[gid-1].ensureWinnerKeyed(wk, required, excluded)
	if s.best != nil && (fw.plan == nil || s.bestCost.Less(fw.plan.Cost.(C))) {
		fw.plan = s.best
		o.stats.RolloutCommits++
		if o.tracer != nil {
			o.tracer.Trace(TraceEvent{Kind: TraceWinner, Group: gid,
				Required: required, Cost: fw.plan.Cost, Plan: fw.plan})
		}
	}
	if o.tracer != nil {
		ev := TraceEvent{Kind: TraceGoalEnd, Group: gid, Required: required}
		if fw.plan != nil {
			ev.Cost = fw.plan.Cost
		}
		o.tracer.Trace(ev)
	}
	if fw.plan != nil && le(fw.plan.Cost.(C), limit) {
		return fw.plan, false
	}
	return nil, true
}

// policyOptimize runs the configured stochastic policy for
// OptimizeWithLimitCtx. The seed planner (the configured one, or the
// syntactic seed as the universal fallback) is captured exactly as
// guided search captures it — its cost primes the root limit
// inclusively and its plan becomes the anytime floor — then episodes
// of rolloutGoal run until the episode bound or the budget stops them.
// On a clean finish the result is the best of the committed root
// winner and the vetted fallback ladder, never a bare nil unless no
// fallback exists: a stochastic policy proves nothing by failing.
func (o *search[C]) policyOptimize(root GroupID, required PhysProps, limit C) *Plan {
	var seed *SeedPlan
	if o.opts.Guidance.SeedPlanner != nil {
		seed = o.opts.Guidance.SeedPlanner(o.Optimizer, root, required)
	} else {
		seed = o.SyntacticSeed(root, required)
	}
	// The seed is achievable, so the optimum costs at most the seed; the
	// inclusive bound admits a plan costing exactly it.
	rootLimit, _ := o.seedLimit(seed, limit)

	episodes := o.opts.Search.Episodes
	if episodes < 1 {
		episodes = DefaultPolicyEpisodes
	}
	o.pol = &policyState{
		nodes: make(map[polKey]*policyNode),
		rng:   rand.New(rand.NewSource(o.opts.Search.RandSeed)),
	}

	var best *Plan
	for ep := 0; ep < episodes && o.memo.err == nil; ep++ {
		o.pol.episode = ep
		p, _ := o.rolloutGoal(root, required, nil, rootLimit, true)
		if p != nil && (best == nil || p.Cost.(C).Less(best.Cost.(C))) {
			best = p
		}
		if p == nil && best == nil && rootLimit.Less(limit) {
			// The seed cost is an estimate and may be unachievable (the
			// greedy planner prices a plan it never builds), and a
			// rollout proves nothing by failing: an episode that came
			// back empty-handed relaxes the limit to the caller's, so
			// later episodes can commit real plans.
			rootLimit = limit
			o.stats.LimitStages++
		}
		o.stats.Episodes++
		if o.tracer != nil {
			ev := TraceEvent{Kind: TracePolicyEpisode, Group: root,
				Required: required, Stage: ep + 1, Steps: o.stats.Steps()}
			if best != nil {
				ev.Cost = best.Cost
				ev.Plan = best
			}
			o.tracer.Trace(ev)
		}
	}
	if o.memo.err != nil {
		// Budget stop: hand the best episode result (possibly nil) to
		// the caller's anytime epilogue, which takes the cheaper of it
		// and the fallback ladder.
		return best
	}
	return o.withFallback(root, required, limit, best)
}
