package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exodus"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// The two optimizer-only workloads. One operation is one cold
// optimization exactly as a caller without a cache pays for it:
// relopt.New + core.NewOptimizer + InsertQuery + OptimizeCtx.

// optQuery is one generated query with what its result is checked
// against.
type optQuery struct {
	q        datagen.Query
	required core.PhysProps
	level    int
	shape    datagen.Shape
	// ref is the reference cost: the optimum found by an unguided,
	// unbudgeted sequential search (opt-fig4). opt-budgeted's reference
	// is the seed floor each budgeted run reports itself.
	ref float64
	// policy is the search policy opt-budgeted optimizes the query under
	// (an index into budgetedPolicies).
	policy int
}

func newOptQuery(q datagen.Query, level int, shape datagen.Shape) *optQuery {
	oq := &optQuery{q: q, level: level, shape: shape}
	if q.OrderBy != rel.InvalidCol {
		oq.required = relopt.SortedOn(q.OrderBy)
	}
	return oq
}

// optimized is the outcome of one operation.
type optimized struct {
	plan  *core.Plan
	stats core.Stats
	err   error
	wall  time.Duration
}

// optimizeOnce runs one operation. options builds the search options
// from the operation's own model (the seed planner belongs to it). With
// a tracer, spans are recorded around each layer call under a root span
// named root.
func optimizeOnce(cat *rel.Catalog, oq *optQuery, options func(*relopt.Model) *core.Options, tr *tracer, op int, root string) optimized {
	ctx := context.Background()
	if tr == nil {
		start := time.Now()
		model := relopt.New(cat, relopt.DefaultConfig())
		opt := core.NewOptimizer(model, options(model))
		g := opt.InsertQuery(oq.q.Root)
		plan, err := opt.OptimizeCtx(ctx, g, oq.required)
		return optimized{plan, *opt.Stats(), err, time.Since(start)}
	}
	start := time.Now()
	rs := tr.begin(root, op, -1)
	s := tr.begin("relopt.model_new", op, rs)
	model := relopt.New(cat, relopt.DefaultConfig())
	tr.end(s, 0)
	s = tr.begin("core.insert", op, rs)
	opt := core.NewOptimizer(model, options(model))
	g := opt.InsertQuery(oq.q.Root)
	tr.end(s, int64(opt.Stats().Exprs))
	s = tr.begin(fmt.Sprintf("core.optimize_rel%d", oq.level), op, rs)
	plan, err := opt.OptimizeCtx(ctx, g, oq.required)
	tr.end(s, int64(opt.Stats().Steps()))
	tr.end(rs, 0)
	return optimized{plan, *opt.Stats(), err, time.Since(start)}
}

// exploreAlone times the transformation fixpoint of one query on a
// fresh optimizer, in milliseconds.
func exploreAlone(cat *rel.Catalog, oq *optQuery) (float64, error) {
	opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
	g := opt.InsertQuery(oq.q.Root)
	start := time.Now()
	if err := opt.ExploreCtx(context.Background(), g); err != nil {
		return 0, fmt.Errorf("explore probe: %w", err)
	}
	return ms(time.Since(start)), nil
}

func guidedOptions(m *relopt.Model) *core.Options {
	return &core.Options{Guidance: core.GuidanceOptions{SeedPlanner: m.SeedPlanner()}}
}

// planCost is the plan's total estimated cost.
func planCost(p *core.Plan) float64 { return p.Cost.(relopt.Cost).Total() }

// sameCost reports whether a plan cost equals its reference. Two plans
// can tie to within the last bit of a float64 sum, and engines that
// visit them in a different order then return either (Workers=2 does
// at seed 1994); that is one optimum, not a mismatch.
func sameCost(cost, ref float64) bool { return math.Abs(cost-ref) <= 1e-12*ref }

// vetPlan checks that a plan is complete (every node has an operator
// and a cost) and delivers the required properties.
func vetPlan(p *core.Plan, required core.PhysProps) error {
	if p == nil || p.Cost == nil {
		return errors.New("no plan")
	}
	if required != nil && (p.Delivered == nil || !p.Delivered.Covers(required)) {
		return errors.New("plan does not deliver the required properties")
	}
	complete := true
	p.Walk(func(n *core.Plan) {
		if n.Op == nil || n.Cost == nil {
			complete = false
		}
	})
	if !complete {
		return errors.New("plan is incomplete")
	}
	return nil
}

// ---------------------------------------------------------------- opt-fig4

type optFig4 struct {
	perLevel int // queries per level; 0 means fig4QueriesPerLevel (tests run fewer)
	cat      *rel.Catalog
	queries  []*optQuery // interleaved across levels: 6, 8, 10, 6, 8, 10, ...
}

func (w *optFig4) sizes() string {
	return fmt.Sprintf("%d queries at each of %v relations, catalog of 10 tables", w.perLevel, fig4Levels)
}

func (w *optFig4) close() {}

// exodusChecked is how many 6-relation queries the traced run also hands
// to the EXODUS-style baseline; it completes in milliseconds there and
// takes seconds per query from 8 relations on.
const exodusChecked = 40

func (w *optFig4) setup(seed int64) error {
	if w.perLevel == 0 {
		w.perLevel = fig4QueriesPerLevel
	}
	src := datagen.New(seed)
	w.cat = src.Catalog(10)
	byLevel := make([][]*optQuery, len(fig4Levels))
	for i, n := range fig4Levels {
		for q := 0; q < w.perLevel; q++ {
			byLevel[i] = append(byLevel[i], newOptQuery(src.SelectJoinQuery(w.cat, n, datagen.ShapeRandom), n, datagen.ShapeRandom))
		}
	}
	w.queries = w.queries[:0]
	for q := 0; q < w.perLevel; q++ {
		for i := range fig4Levels {
			w.queries = append(w.queries, byLevel[i][q])
		}
	}
	// Reference optimum: unguided, unbudgeted, sequential.
	for _, oq := range w.queries {
		o := optimizeOnce(w.cat, oq, func(*relopt.Model) *core.Options { return nil }, nil, 0, "")
		if o.err != nil {
			return fmt.Errorf("reference search at %d relations: %w", oq.level, o.err)
		}
		if err := vetPlan(o.plan, oq.required); err != nil {
			return fmt.Errorf("reference search at %d relations: %w", oq.level, err)
		}
		oq.ref = planCost(o.plan)
	}
	return nil
}

// verify checks one guided operation against the reference optimum.
func (w *optFig4) verify(r *result, oq *optQuery, o optimized) {
	r.attempted++
	switch {
	case o.err != nil:
		r.fail("%d relations: %v", oq.level, o.err)
	case vetPlan(o.plan, oq.required) != nil:
		r.fail("%d relations: %v", oq.level, vetPlan(o.plan, oq.required))
	case !sameCost(planCost(o.plan), oq.ref):
		r.fail("%d relations: cost %v, reference optimum %v", oq.level, planCost(o.plan), oq.ref)
	default:
		r.okay++
		r.busy += o.wall
		r.ratioSum += planCost(o.plan) / oq.ref
		r.ratioN++
	}
	r.opMS = append(r.opMS, ms(o.wall))
}

// fig4SliceOps is the length of one slice of the timed run: 40 queries
// at each level.
const fig4SliceOps = 120

func (w *optFig4) run(d time.Duration) (*result, error) {
	r := &result{}
	sliced(r, d, fig4SliceOps, func(i int) {
		oq := w.queries[i%len(w.queries)]
		w.verify(r, oq, optimizeOnce(w.cat, oq, guidedOptions, nil, 0, ""))
	})
	return r, nil
}

func (w *optFig4) trace(d time.Duration, tr *tracer, out map[string]float64) (*result, error) {
	// One full pass, whatever d is: the per-operation counts below are
	// exact only over the whole query set. Every query is optimized
	// untraced and traced back to back, so both see the same heap.
	base, r := &result{}, &result{}
	var total core.Stats
	peakMemo := 0
	optimizeMS := make([]float64, len(w.queries))
	for i, oq := range w.queries {
		// Whichever of a pair runs second is a little slower; alternate.
		if i%2 == 0 {
			w.verify(base, oq, optimizeOnce(w.cat, oq, guidedOptions, nil, 0, ""))
		}
		o := optimizeOnce(w.cat, oq, guidedOptions, tr, i, "op")
		w.verify(r, oq, o)
		if i%2 == 1 {
			w.verify(base, oq, optimizeOnce(w.cat, oq, guidedOptions, nil, 0, ""))
		}
		s := o.stats
		total.MatchCalls += s.MatchCalls
		total.AlgorithmMoves += s.AlgorithmMoves
		total.EnforcerMoves += s.EnforcerMoves
		total.GoalsOptimized += s.GoalsOptimized
		total.RulesFired += s.RulesFired
		total.Exprs += s.Exprs
		total.Groups += s.Groups
		total.LimitStages += s.LimitStages
		total.WinnerHits += s.WinnerHits
		total.FailureHits += s.FailureHits
		total.MovesReused += s.MovesReused
		total.GoalsPruned += s.GoalsPruned
		if s.PeakMemoBytes > peakMemo {
			peakMemo = s.PeakMemoBytes
		}
		optimizeMS[i] = ms(o.wall)
	}
	n := float64(len(w.queries))
	out["core.match_calls_per_op"] = float64(total.MatchCalls) / n
	out["core.steps_per_op"] = float64(total.Steps()) / n
	out["core.goals_per_op"] = float64(total.GoalsOptimized) / n
	out["core.rules_fired_per_op"] = float64(total.RulesFired) / n
	out["core.exprs_per_op"] = float64(total.Exprs) / n
	out["core.groups_per_op"] = float64(total.Groups) / n
	out["core.limit_stages_per_op"] = float64(total.LimitStages) / n
	out["core.winner_hit_share"] = ratio(float64(total.WinnerHits), float64(total.WinnerHits+total.FailureHits+total.GoalsOptimized))
	out["core.moves_reused_share"] = ratio(float64(total.MovesReused), float64(total.MovesReused+total.MatchCalls))
	out["core.goals_pruned_share"] = ratio(float64(total.GoalsPruned), float64(total.GoalsOptimized))
	out["core.peak_memo_kb"] = float64(peakMemo) / 1024

	lt := tr.aggregate()
	out["relopt.model_new_us"] = medianUS(lt, "relopt.model_new")
	out["core.insert_us"] = medianUS(lt, "core.insert")
	layers := []string{"relopt.model_new", "core.insert"}
	for _, n := range fig4Levels {
		name := fmt.Sprintf("core.optimize_rel%d", n)
		out[fmt.Sprintf("core.optimize_ms_rel%d", n)] = medianUS(lt, name) / 1e3
		layers = append(layers, name)
	}
	out["trace.self_sum_share"] = selfSumShare(lt, "op", layers...)
	out["trace.overhead_share"] = pairedOverheadShare(base, r)
	r.merge(base)

	// Probes, on every fourth query: exploration alone on a fresh
	// optimizer against the full optimization of the same query, and
	// the greedy seed planner called directly.
	var exploreMS, fullMS, seedUS []float64
	for i := 0; i < len(w.queries); i += 4 {
		oq := w.queries[i]
		explored, err := exploreAlone(w.cat, oq)
		if err != nil {
			return nil, err
		}
		exploreMS = append(exploreMS, explored)
		fullMS = append(fullMS, optimizeMS[i])

		model := relopt.New(w.cat, relopt.DefaultConfig())
		opt := core.NewOptimizer(model, nil)
		g := opt.InsertQuery(oq.q.Root)
		start := time.Now()
		seed := model.SeedPlanner()(opt, g, oq.required)
		seedUS = append(seedUS, us(time.Since(start)))
		if seed == nil {
			return nil, errors.New("seed probe: the greedy planner produced no seed")
		}
	}
	out["core.explore_ms"] = mean(exploreMS)
	out["core.explore_share"] = ratio(mean(exploreMS), mean(fullMS))
	out["relopt.seed_us"] = median(seedUS)

	// The reference optimum against the EXODUS-style baseline, an
	// independent optimizer. Were the two priced by one cost model, the
	// baseline could never come out cheaper. It does (seed 1994: 1911
	// against an optimum of 2422 for the same plan shape), because it
	// folds the input sorts of a merge-join into the join at a lower
	// price than relopt's sort enforcer charges. So this is reported,
	// not gated: agreement where both pick sort-free plans, and how
	// often the baseline's books disagree.
	var agree, cheaper, checked int
	for _, oq := range w.queries {
		if oq.level != fig4Levels[0] {
			continue
		}
		if checked == exodusChecked {
			break
		}
		ex := exodus.New(w.cat, exodus.Config{MaxNodes: 1 << 20, Timeout: 10 * time.Second})
		_, cost, err := ex.Optimize(oq.q.Root, oq.q.OrderBy)
		if err != nil {
			continue // aborted baseline run, as in the paper
		}
		checked++
		switch diff := (cost.Total() - oq.ref) / oq.ref; {
		case diff < -1e-9:
			cheaper++
		case diff <= 1e-9:
			agree++
		}
	}
	out["exodus.agree_share"] = ratio(float64(agree), float64(checked))
	out["exodus.cheaper_share"] = ratio(float64(cheaper), float64(checked))

	// The task engine on two workers against the sequential engine, on
	// the same 10-relation queries, alternating.
	var seqMS, w2MS []float64
	var run, parked int
	w2Options := func(m *relopt.Model) *core.Options {
		o := guidedOptions(m)
		o.Search.Workers = 2
		return o
	}
	probed := 0
	for _, oq := range w.queries {
		if oq.level != 10 {
			continue
		}
		if probed++; probed > 40 {
			break
		}
		seq := optimizeOnce(w.cat, oq, guidedOptions, nil, 0, "")
		par := optimizeOnce(w.cat, oq, w2Options, nil, 0, "")
		r.attempted++
		if par.err != nil || par.plan == nil || !sameCost(planCost(par.plan), oq.ref) {
			r.fail("Workers=2 at 10 relations: cost differs from the reference optimum (err %v)", par.err)
		}
		seqMS = append(seqMS, ms(seq.wall))
		w2MS = append(w2MS, ms(par.wall))
		run += par.stats.TasksRun
		parked += par.stats.TasksParked
	}
	out["core.optimize_w2_ms_rel10"] = median(w2MS)
	out["core.w2_speedup"] = ratio(mean(seqMS), mean(w2MS))
	out["core.tasks_parked_share"] = ratio(float64(parked), float64(run))
	return r, nil
}

// ------------------------------------------------------------ opt-budgeted

var budgetedShapes = []datagen.Shape{datagen.ShapeChain, datagen.ShapeStar, datagen.ShapeRandom}

var budgetedPolicies = []struct {
	name   string
	policy core.SearchPolicy
}{
	{"guided", core.PolicyExhaustive},
	{"mcts", core.PolicyMCTS},
	{"widening", core.PolicyWidening},
}

type optBudgeted struct {
	perCell int // queries per cell; 0 means budgetedPerCell (tests run fewer)
	seed    int64
	cat     *rel.Catalog
	// queries are interleaved across the (level, shape) cells; within a
	// cell the policies take turns, one policy per query. Every query is
	// a fresh draw: for a given run length, 648 queries under one policy
	// each pin plan_cost_ratio down better across seeds than 216 queries
	// under all three, whose outcomes move together.
	queries []*optQuery
}

func (w *optBudgeted) sizes() string {
	return fmt.Sprintf("%d queries in each of %v relations x chain/star/random, policies guided/mcts/widening in turn, MaxSteps %d",
		w.perCell, budgetedLevels, budgetedMaxSteps)
}

func (w *optBudgeted) close() {}

func (w *optBudgeted) setup(seed int64) error {
	if w.perCell == 0 {
		w.perCell = budgetedPerCell
	}
	w.seed = seed
	src := datagen.New(seed)
	w.cat = src.Catalog(10)
	var cells [][]*optQuery
	for _, n := range budgetedLevels {
		for _, shape := range budgetedShapes {
			var cell []*optQuery
			for q := 0; q < w.perCell; q++ {
				oq := newOptQuery(src.SelectJoinQuery(w.cat, n, shape), n, shape)
				oq.policy = q % len(budgetedPolicies)
				cell = append(cell, oq)
			}
			cells = append(cells, cell)
		}
	}
	w.queries = w.queries[:0]
	for q := 0; q < w.perCell; q++ {
		for _, cell := range cells {
			w.queries = append(w.queries, cell[q])
		}
	}
	return nil
}

func (w *optBudgeted) options(oq *optQuery) func(*relopt.Model) *core.Options {
	return func(m *relopt.Model) *core.Options {
		o := guidedOptions(m)
		o.Budget = core.Budget{MaxSteps: budgetedMaxSteps}
		o.Search.Policy = budgetedPolicies[oq.policy].policy
		o.Search.RandSeed = w.seed
		return o
	}
}

// verify vets one budgeted operation: a complete plan that delivers the
// required properties, found within the step budget. It returns the
// plan's cost over the seed floor. The anytime contract also promises a
// cost no higher than the seed floor; at the commit that added this
// benchmark the stochastic policies break that promise on a few chain
// queries (seed 1993: 3 of 648 operations, by up to 15%), so a ratio
// above 1 is reported as plan quality (plan_cost_ratio,
// core.floor_violation_share) and not as a failed operation.
func (w *optBudgeted) verify(r *result, oq *optQuery, o optimized) float64 {
	r.attempted++
	r.opMS = append(r.opMS, ms(o.wall))
	if o.err != nil && !errors.Is(o.err, core.ErrBudget) {
		r.fail("%d relations %s: %v", oq.level, oq.shape, o.err)
		return 0
	}
	if err := vetPlan(o.plan, oq.required); err != nil {
		r.fail("%d relations %s: %v", oq.level, oq.shape, err)
		return 0
	}
	floor, ok := o.stats.SeedFloorCost.(relopt.Cost)
	if !ok || floor.Total() <= 0 {
		r.fail("%d relations %s: budgeted run reported no seed floor", oq.level, oq.shape)
		return 0
	}
	if o.stats.Steps() > budgetedMaxSteps {
		r.fail("%d relations %s: %d steps past the budget of %d", oq.level, oq.shape, o.stats.Steps(), budgetedMaxSteps)
		return 0
	}
	vs := planCost(o.plan) / floor.Total()
	r.okay++
	r.busy += o.wall
	r.ratioSum += vs
	r.ratioN++
	return vs
}

// budgetedSliceOps is the length of one slice of the timed run: six
// queries from each of the nine cells, two per policy.
const budgetedSliceOps = 54

func (w *optBudgeted) run(d time.Duration) (*result, error) {
	r := &result{}
	sliced(r, d, budgetedSliceOps, func(i int) {
		oq := w.queries[i%len(w.queries)]
		w.verify(r, oq, optimizeOnce(w.cat, oq, w.options(oq), nil, 0, ""))
	})
	return r, nil
}

func (w *optBudgeted) trace(d time.Duration, tr *tracer, out map[string]float64) (*result, error) {
	base, r := &result{}, &result{}
	type cell struct{ ms, vs []float64 }
	byLevel := map[string]*cell{} // policy_relN
	byShape := map[string]*cell{} // policy_shape
	byPolicy := map[string]*cell{}
	at := func(m map[string]*cell, k string) *cell {
		if m[k] == nil {
			m[k] = &cell{}
		}
		return m[k]
	}
	completed := map[string]int{}
	var fallbacks, episodes, policyOps, peakMemo, aboveFloor int
	var exploreMS, fullMS []float64
	start := time.Now()
	for i, oq := range w.queries {
		p := budgetedPolicies[oq.policy]
		// Whichever of a pair runs second is a little slower; alternate.
		if i%2 == 0 {
			w.verify(base, oq, optimizeOnce(w.cat, oq, w.options(oq), nil, 0, ""))
		}
		o := optimizeOnce(w.cat, oq, w.options(oq), tr, i, "op")
		vs := w.verify(r, oq, o)
		if i%2 == 1 {
			w.verify(base, oq, optimizeOnce(w.cat, oq, w.options(oq), nil, 0, ""))
		}
		if vs > 1 {
			aboveFloor++
		}
		if o.err == nil {
			completed[p.name]++
		}
		if o.stats.AnytimeFallback {
			fallbacks++
		}
		if p.policy != core.PolicyExhaustive {
			episodes += o.stats.Episodes
			policyOps++
		}
		if o.stats.PeakMemoBytes > peakMemo {
			peakMemo = o.stats.PeakMemoBytes
		}
		for _, c := range []*cell{
			at(byLevel, fmt.Sprintf("%s_rel%d", p.name, oq.level)),
			at(byShape, p.name+"_"+oq.shape.String()),
			at(byPolicy, p.name),
		} {
			c.ms = append(c.ms, ms(o.wall))
			c.vs = append(c.vs, vs)
		}
		// Exploration alone, on a fresh optimizer, for the same query.
		explored, err := exploreAlone(w.cat, oq)
		if err != nil {
			return nil, err
		}
		exploreMS = append(exploreMS, explored)
		fullMS = append(fullMS, ms(o.wall))
		// Whole slices only, so that every cell and policy weighs the
		// same; at least two, however short d is.
		if done := i + 1; done%budgetedSliceOps == 0 && done >= 2*budgetedSliceOps && time.Since(start) >= d {
			break
		}
	}
	ops := len(r.opMS)
	for _, p := range budgetedPolicies {
		for _, n := range budgetedLevels {
			out[fmt.Sprintf("core.%s_ms_rel%d", p.name, n)] = median(at(byLevel, fmt.Sprintf("%s_rel%d", p.name, n)).ms)
		}
		for _, s := range budgetedShapes {
			out["core."+p.name+"_cost_vs_seed_"+s.String()] = mean(at(byShape, p.name+"_"+s.String()).vs)
		}
		out["core."+p.name+"_cost_vs_seed"] = mean(at(byPolicy, p.name).vs)
		out["core."+p.name+"_completed_share"] = ratio(float64(completed[p.name]), float64(len(at(byPolicy, p.name).ms)))
	}
	out["core.fallback_share"] = ratio(float64(fallbacks), float64(ops))
	out["core.floor_violation_share"] = ratio(float64(aboveFloor), float64(ops))
	out["core.episodes_per_op"] = ratio(float64(episodes), float64(policyOps))
	out["core.peak_memo_kb"] = float64(peakMemo) / 1024
	out["core.explore_ms"] = mean(exploreMS)
	out["core.explore_share"] = ratio(mean(exploreMS), mean(fullMS))

	lt := tr.aggregate()
	out["relopt.model_new_us"] = medianUS(lt, "relopt.model_new")
	out["core.insert_us"] = medianUS(lt, "core.insert")
	layers := []string{"relopt.model_new", "core.insert"}
	for _, n := range budgetedLevels {
		layers = append(layers, fmt.Sprintf("core.optimize_rel%d", n))
	}
	out["trace.self_sum_share"] = selfSumShare(lt, "op", layers...)
	out["trace.overhead_share"] = pairedOverheadShare(base, r)
	r.merge(base)
	return r, nil
}
