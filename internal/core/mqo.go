package core

import (
	"context"
	"errors"
	"sort"
)

// Multi-query optimization over one shared memo.
//
// The memo already deduplicates logically equivalent expressions within
// one query; this file extends the same machinery across a *batch* of
// distinct-but-overlapping queries, following Roy et al., "Efficient and
// Extensible Algorithms for Multi Query Optimization": every query's
// tree is inserted into a common memo and the root goals are optimized
// one after another by the one FindBestPlan: the winner and failure
// tables an earlier root filled answer every later root warm, so sharing
// needs nothing beyond the memo's look-up tables. A Volcano-SH-style
// greedy post-pass then decides, per shared winner, whether spooling its
// result once (Materialize) and rescanning it (Reuse) beats recomputing
// it in every plan that uses it.

// SpoolID names one materialized shared result within a batch. The
// executor uses it to connect a Materialize operator to the Reuse
// operators scanning its spool.
type SpoolID int32

// Sharer is the optional Model extension multi-query materialization
// needs: costs for writing a class's result to a spool and reading it
// back, and physical operators carrying the decision into the plan.
// MaterializeSharedPlans is a no-op for models that do not implement it.
type Sharer interface {
	Model
	// MaterializeCost prices spooling the class's result once.
	MaterializeCost(lp LogicalProps) Cost
	// ReuseCost prices one scan of the spooled result.
	ReuseCost(lp LogicalProps) Cost
	// BuildMaterialize returns the physical operator that spools its
	// input's result under the given spool ID while passing it through.
	BuildMaterialize(id SpoolID, lp LogicalProps) PhysicalOp
	// BuildReuse returns the leaf physical operator that scans the
	// spool.
	BuildReuse(id SpoolID, lp LogicalProps) PhysicalOp
}

// OptimizeBatchCtx optimizes a batch of root goals over this
// optimizer's one memo, in order, each by the same FindBestPlan a single
// Optimize call runs. required[i] is root i's requirement; a nil entry,
// a nil slice, or a slice shorter than roots means no requirement for
// the roots left uncovered. It returns one plan per root, aligned with
// roots; a nil plan with a nil error means the completed search proved
// no plan exists for that root. Shared exploration is free: any goal
// decided for one root answers every later root from the winner table.
//
// The optimizer's Budget bounds the batch as a whole. On a budget stop
// the error is the typed budget error; roots decided before the stop keep
// their optimal plans, and the interrupted root and every root after it
// degrade through the anytime path (best known winner or the query as
// written), exactly as OptimizeWithLimitCtx does for one root.
//
// After the search, Stats.SharedGroups and Stats.SharedWinners count
// the equivalence classes reachable from more than one root and the
// winner plan nodes shared by more than one returned plan.
//
// The batch calls FindBestPlan directly, so the strategies a single
// Optimize call dispatches to instead — GlueMode, a SeedPlanner, a
// stochastic Policy — are rejected with an error and all-nil plans.
// MoveFilter needs no dispatch: FindBestPlan applies it itself.
func (o *Optimizer) OptimizeBatchCtx(ctx context.Context, roots []GroupID, required []PhysProps) ([]*Plan, error) {
	plans := make([]*Plan, len(roots))
	switch {
	case o.opts.Search.GlueMode:
		return plans, errors.New("core: OptimizeBatchCtx drives every root through FindBestPlan and does not support Search.GlueMode")
	case o.opts.Guidance.SeedPlanner != nil:
		return plans, errors.New("core: OptimizeBatchCtx drives every root through FindBestPlan and does not support Guidance.SeedPlanner")
	case o.opts.Search.Policy != PolicyExhaustive:
		return plans, errors.New("core: OptimizeBatchCtx drives every root through FindBestPlan and does not support a stochastic Search.Policy")
	}
	if len(roots) == 0 {
		return plans, nil
	}
	reqs := make([]PhysProps, len(roots))
	for i, root := range roots {
		if root == InvalidGroup {
			// Query insertion itself failed (e.g. expression budget).
			if err := o.memo.Err(); err != nil {
				return plans, err
			}
			return plans, ErrBudget
		}
		if i < len(required) {
			reqs[i] = required[i]
		}
		if reqs[i] == nil {
			reqs[i] = o.model.AnyProps()
		}
	}
	o.armBudget(ctx)
	if o.bud != nil && o.memo.err == nil {
		if err := o.bud.poll(); err != nil {
			o.memo.err = err
		}
	}
	limit := o.memo.costs.Infinite()
	for i, root := range roots {
		// A budget stop is sticky in memo.err: findBestPlan then returns
		// nil for every remaining root, which takes the fallback below.
		// With the strategies above rejected, the engine runs exactly
		// findBestPlan.
		plans[i] = o.eng.optimize(root, reqs[i], limit)
	}
	o.stats.SharedGroups = o.memo.sharedGroupCount(roots)
	o.stats.SharedWinners = sharedPlanNodeCount(plans)
	if b := o.memo.MemoryBytes(); b > o.stats.PeakMemoBytes {
		o.stats.PeakMemoBytes = b
	}
	err := o.memo.Err()
	if err == nil {
		return plans, nil
	}
	if !errors.Is(err, ErrBudget) {
		return make([]*Plan, len(roots)), err
	}
	// Anytime degradation, per root: surface the best complete plan
	// known at the stop alongside the typed budget error.
	o.stats.StopReason = err
	for i, root := range roots {
		plans[i] = o.withFallback(root, reqs[i], limit, plans[i])
	}
	return plans, err
}

// sharedGroupCount counts canonical equivalence classes reachable (via
// expression inputs, transitively) from more than one of the given
// roots: exploration and goal work done once instead of once per query.
func (m *Memo) sharedGroupCount(roots []GroupID) int {
	reachedBy := make(map[GroupID]int)
	for _, root := range roots {
		if root == InvalidGroup {
			continue
		}
		seen := make(map[GroupID]bool)
		var visit func(GroupID)
		visit = func(g GroupID) {
			g = m.Find(g)
			if seen[g] {
				return
			}
			seen[g] = true
			for _, e := range m.groups[g-1].Exprs() {
				for _, in := range e.Inputs {
					visit(in)
				}
			}
		}
		visit(root)
		for g := range seen {
			reachedBy[g]++
		}
	}
	n := 0
	for _, c := range reachedBy {
		if c > 1 {
			n++
		}
	}
	return n
}

// sharedPlanNodeCount counts distinct plan nodes appearing in more than
// one of the given plans. Winner tables hand every consumer the same
// *Plan, so pointer identity is exactly "the same winner": these are the
// subplans a Materialize/Reuse pass can turn into saved execution work.
func sharedPlanNodeCount(plans []*Plan) int {
	usedBy := make(map[*Plan]int)
	for _, p := range plans {
		if p == nil {
			continue
		}
		seen := make(map[*Plan]bool)
		var visit func(*Plan)
		visit = func(n *Plan) {
			if seen[n] {
				return
			}
			seen[n] = true
			for _, in := range n.Inputs {
				visit(in)
			}
		}
		visit(p)
		for n := range seen {
			usedBy[n]++
		}
	}
	n := 0
	for _, c := range usedBy {
		if c > 1 {
			n++
		}
	}
	return n
}

// spoolDecision tracks one winning materialization candidate through
// the rewrite: its spool ID, the costs the decision was priced at, the
// shared Reuse node emitted at every occurrence after the first, and
// the Materialize node emitted at the first.
type spoolDecision struct {
	id      SpoolID
	mat     Cost
	reuse   Cost
	matNode *Plan
	reuseN  *Plan
}

// MaterializeSharedPlans applies the Volcano-SH-style greedy
// materialization pass to a batch's plans (typically the output of
// OptimizeBatchCtx): every plan node used k >= 2 times
// across the batch is a candidate, and a candidate p is rewritten iff
// the cost model says sharing wins —
//
//	cost(p) + cost(materialize) + (k-1)·cost(reuse)  <  k·cost(p)
//
// i.e. one computation feeding a spool plus k-1 spool scans beats k
// recomputations. Winning candidates are processed from most to least
// expensive; the first occurrence in batch execution order becomes a
// Materialize node over the subplan, every later occurrence a Reuse
// leaf, and ancestor costs are recomputed. Nodes are never mutated —
// rewritten trees are rebuilt — so the memo's winner tables stay intact.
//
// The pass returns the rewritten plans (aligned with the input; nil
// plans pass through) and the number of spools introduced. It is a
// no-op — same slice, zero spools — when the model does not implement
// Sharer or no candidate wins. Rewritten plans must be executed in
// order against one shared spool store: a Reuse is only valid in the
// same batch execution as its Materialize.
func MaterializeSharedPlans(model Model, plans []*Plan) ([]*Plan, int) {
	sh, ok := model.(Sharer)
	if !ok {
		return plans, 0
	}
	cs := model.Costs()
	// Count occurrences of every node across the batch. Each plan is a
	// tree of occurrences over a DAG of shared nodes: a node used twice
	// contributes its subtree's occurrences twice, which is exactly the
	// number of times execution would compute it.
	counts := make(map[*Plan]int)
	order := make(map[*Plan]int) // first-occurrence ordinal, for determinism
	ordinal := 0
	var count func(*Plan)
	count = func(p *Plan) {
		if counts[p] == 0 {
			order[p] = ordinal
			ordinal++
		}
		counts[p]++
		for _, in := range p.Inputs {
			count(in)
		}
	}
	for _, p := range plans {
		if p != nil {
			count(p)
		}
	}

	// Decide winners, most expensive first so big shared subtrees win
	// before the smaller candidates nested inside them.
	var cands []*Plan
	for p, k := range counts {
		if k >= 2 {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cs.Less(cands[j].Cost, cands[i].Cost) {
			return true
		}
		if cs.Less(cands[i].Cost, cands[j].Cost) {
			return false
		}
		return order[cands[i]] < order[cands[j]]
	})
	decided := make(map[*Plan]*spoolDecision)
	var nextID SpoolID
	for _, p := range cands {
		k := counts[p]
		matCost := sh.MaterializeCost(p.LogProps)
		reuseCost := sh.ReuseCost(p.LogProps)
		// shared = p + materialize + (k-1) reuses; recompute = k·p.
		// Cost has no scaling in the base interface, so both sides are
		// built by repeated addition.
		shared := cs.add(p.Cost, matCost)
		recompute := p.Cost
		for i := 1; i < k; i++ {
			shared = cs.add(shared, reuseCost)
			recompute = cs.add(recompute, p.Cost)
		}
		if cs.Less(shared, recompute) {
			decided[p] = &spoolDecision{id: nextID, mat: matCost, reuse: reuseCost}
			nextID++
		}
	}
	if len(decided) == 0 {
		return plans, 0
	}

	// Rewrite in batch execution order. The first surviving occurrence
	// of a winner becomes its Materialize; later occurrences share one
	// Reuse leaf. Occurrences nested under an already-emitted Reuse
	// vanish with the subtree, so a nested winner may end up with fewer
	// uses than priced — the strip pass below cleans up the degenerate
	// zero-reuse case.
	var rewrite func(*Plan) *Plan
	rewrite = func(p *Plan) *Plan {
		d := decided[p]
		if d != nil && d.matNode != nil {
			return d.reuseN
		}
		out := withInputs(cs, p, rewrite)
		if d == nil {
			return out
		}
		d.matNode = &Plan{
			Op:        sh.BuildMaterialize(d.id, p.LogProps),
			Inputs:    []*Plan{out},
			Delivered: p.Delivered, // the spool preserves its input's order
			Cost:      cs.add(out.Cost, d.mat),
			Group:     p.Group,
			LogProps:  p.LogProps,
		}
		d.reuseN = &Plan{
			Op:        sh.BuildReuse(d.id, p.LogProps),
			Delivered: p.Delivered,
			Cost:      d.reuse,
			Group:     p.Group,
			LogProps:  p.LogProps,
		}
		return d.matNode
	}
	out := make([]*Plan, len(plans))
	for i, p := range plans {
		if p != nil {
			out[i] = rewrite(p)
		}
	}

	// Strip spools that ended up with no Reuse (every later occurrence
	// vanished inside another winner's Reuse): the Materialize would pay
	// its cost for nothing, so replace it with its input and recompute
	// ancestor costs.
	used := make(map[*Plan]bool)
	var mark func(*Plan)
	mark = func(p *Plan) {
		if len(p.Inputs) == 0 {
			used[p] = true
			return
		}
		for _, in := range p.Inputs {
			mark(in)
		}
	}
	for _, p := range out {
		if p != nil {
			mark(p)
		}
	}
	spools := 0
	strip := make(map[*Plan]bool) // Materialize nodes to remove
	for _, d := range decided {
		if d.matNode == nil {
			continue // never placed: all occurrences vanished under other Reuses
		}
		if used[d.reuseN] {
			spools++
		} else {
			strip[d.matNode] = true
		}
	}
	if len(strip) > 0 {
		memoized := make(map[*Plan]*Plan)
		var fix func(*Plan) *Plan
		fix = func(p *Plan) *Plan {
			if r, ok := memoized[p]; ok {
				return r
			}
			if strip[p] {
				r := fix(p.Inputs[0])
				memoized[p] = r
				return r
			}
			res := withInputs(cs, p, fix)
			memoized[p] = res
			return res
		}
		for i, p := range out {
			if p != nil {
				out[i] = fix(p)
			}
		}
	}
	return out, spools
}

// withInputs returns p with each input replaced by f's rewrite of it:
// p itself when f changes none, else a copy over the new inputs, costing
// p.Cost minus the old inputs' costs (exact costs leave p's own cost)
// plus the new inputs'. No choose-plan, whose cost is one alternative's
// rather than a sum, reaches the pass: batches reject parameterized
// statements.
func withInputs(cs CostSpace, p *Plan, f func(*Plan) *Plan) *Plan {
	var inputs []*Plan
	for i, in := range p.Inputs {
		r := f(in)
		if r != in && inputs == nil {
			inputs = append([]*Plan(nil), p.Inputs...)
		}
		if inputs != nil {
			inputs[i] = r
		}
	}
	if inputs == nil {
		return p
	}
	cp := *p
	cp.Inputs = inputs
	for i, in := range inputs {
		cp.Cost = cs.add(cs.sub(cp.Cost, p.Inputs[i].Cost), in.Cost)
	}
	return &cp
}
