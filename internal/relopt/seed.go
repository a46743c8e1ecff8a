package relopt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rel"
)

// Seed planning for guided branch-and-bound. The greedy seeder builds
// one complete plan per query without any search: join the
// cheapest-cardinality pair first, then attach the remaining relations
// by estimated output size, implement every join by hybrid hash join,
// and sort the result if the goal requires an order. Its cost sums the
// same once-rounded terms the implementation rules charge (the
// *CostProps helpers below are shared with impl.go and enforcers.go), in
// exact arithmetic, and its last join and final sort are priced with the
// goal class's own cardinality estimate, as the search prices them. The
// seed's cost is then an upper bound on the optimum, which makes the
// inclusive seeded stage of core's guided search succeed on the first
// attempt; TestLimitEqualToOptimumReturnsIt holds every guided run of
// the Figure 4 generator to that one stage.

// terms are a cost formula's I/O and CPU terms, in page I/Os, before
// rounding; cost rounds them into a Cost, the formula's one rounding.
type terms struct{ io, cpu float64 }

func (t terms) cost() Cost { return NewCost(t.io, t.cpu) }

// scanCost prices a file scan of a stored relation: one read of its
// pages plus per-tuple output construction.
func (m *Model) scanCost(p *rel.Props) terms {
	return terms{
		io:  p.Pages(m.Cfg.Params.PageBytes),
		cpu: p.Rows * m.Cfg.Params.CPUTuple,
	}
}

// filterCost prices a filter over an input with the given properties:
// one predicate evaluation per input row.
func (m *Model) filterCost(in *rel.Props) terms {
	return terms{cpu: in.Rows * m.Cfg.Params.CPUPred}
}

// projectCost prices a standalone projection: one tuple copy per row.
func (m *Model) projectCost(in *rel.Props) terms {
	return terms{cpu: in.Rows * m.Cfg.Params.CPUTuple}
}

// mergeJoinCostProps prices a merge-join over sorted inputs: one pass
// over both inputs plus output construction.
func (m *Model) mergeJoinCostProps(lp, rp, op *rel.Props) terms {
	return terms{cpu: (lp.Rows+rp.Rows)*m.Cfg.Params.CPUCompare +
		op.Rows*m.Cfg.Params.CPUTuple}
}

// hashJoinCostProps prices a hybrid hash join building on the left
// input: hashing both inputs, output construction, and partition-file
// I/O for the overflow fraction when the build side exceeds the work
// space.
func (m *Model) hashJoinCostProps(lp, rp, op *rel.Props) terms {
	return terms{
		io: HashSpillIO(m.Cfg.Params, lp.Pages(m.Cfg.Params.PageBytes), rp.Pages(m.Cfg.Params.PageBytes)),
		cpu: (lp.Rows+rp.Rows)*m.Cfg.Params.CPUHash +
			op.Rows*m.Cfg.Params.CPUTuple,
	}
}

// sortCost prices the sort enforcer's single-level merge: runs written
// once and read once, with rows (possibly a per-partition fraction)
// compared log(rows) times each.
func (m *Model) sortCost(p *rel.Props, rows float64) Cost {
	return NewCost(2*p.Pages(m.Cfg.Params.PageBytes)*m.Cfg.Params.SpillIO,
		rows*log2(rows)*m.Cfg.Params.CPUCompare)
}

// LowerBound implements core.LowerBounder[Cost]: every physical plan for a
// class reads each of its base relations exactly once through the
// (serial, never cost-scaled) file scan — GET's only implementation —
// so the sum of those scan costs is an admissible floor for any plan of
// the class under any property requirement. Self-overlapping set
// operations scan shared tables more than once, which only widens the
// gap above the floor.
func (m *Model) LowerBound(lp core.LogicalProps) (Cost, bool) {
	p, ok := lp.(*rel.Props)
	if !ok || p.Tables == 0 {
		return Cost{}, false
	}
	var c Cost
	for _, name := range m.Cat.Tables() {
		t := m.Cat.Table(name)
		if p.Tables&(1<<uint(t.Index)) == 0 {
			continue
		}
		c = c.Add(m.scanCost(&rel.Props{Rows: float64(t.Rows), RowBytes: t.RowBytes}).cost())
	}
	return c, true
}

var _ core.LowerBounder[Cost] = (*Model)(nil)

// SeedPlanner returns the model's seed planner for core's guided search:
// the greedy join-ordering seeder. Query shapes the greedy pass does not
// cover — non-join roots, partitioned goals, and disconnected join graphs
// — get the generic syntactic seed (the query as written, algorithm
// choices only) under a budget, where it is the anytime floor, and no
// seed otherwise: a scratch optimization bought only for its cost limit
// costs more than the pruning it buys, so an unbudgeted declined shape
// runs exactly the unguided search.
func (m *Model) SeedPlanner() core.SeedPlanner {
	return func(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
		sp := m.greedySeed(o, root, required)
		if !o.Budgeted() {
			return sp
		}
		syn := o.SyntacticSeed(root, required)
		if sp == nil {
			return syn
		}
		// The greedy seed prices a plan it never builds (it may drop
		// intra-component predicates, so materializing it would change
		// query results). The budgeted search needs a real degradation
		// floor, so attach the syntactic plan — the query as written,
		// correct by construction — while keeping the (usually tighter)
		// greedy cost as the seeded limit.
		if syn != nil {
			sp.Plan = syn.Plan
		}
		return sp
	}
}

// seedComp is one connected component of the greedy seeder's working
// set: the logical properties of the relations joined so far and the
// accumulated cost of producing them.
type seedComp struct {
	props *rel.Props
	cost  Cost
	// base is true while the component reads a single base relation —
	// the "composite inner" test under Config.NoCompositeInner.
	base bool
}

// greedySeed builds the greedy hash-join plan for a join-tree query and
// returns its cost, or nil when the query's shape is out of scope.
func (m *Model) greedySeed(o *core.Optimizer, root core.GroupID, required core.PhysProps) *core.SeedPlan {
	rp, ok := required.(*PhysProps)
	if !ok || rp.Part.Kind != PartNone {
		// Partitioned goals need exchange placement; leave those to the
		// syntactic fallback.
		return nil
	}
	memo := o.Memo()
	var comps []seedComp
	var preds []*rel.Join
	if !m.collectJoinTree(memo, root, make(map[core.GroupID]bool), &comps, &preds) {
		return nil
	}
	if len(preds) == 0 || len(comps) < 2 {
		// Single-relation queries gain nothing from join ordering.
		return nil
	}
	factors := len(comps)

	// Greedily merge components: among the predicates that connect two
	// distinct components, take the one whose join produces the fewest
	// rows. Predicates whose columns fall inside one component are
	// dropped — their filtering effect is forgone, which only inflates
	// the seed (the bound stays sound).
	for len(comps) > 1 {
		bi, bj, bp := -1, -1, -1
		var bout *rel.Props
		for pi, j := range preds {
			ci := findComp(comps, j.A)
			cj := findComp(comps, j.B)
			if ci < 0 || cj < 0 || ci == cj {
				continue
			}
			if m.Cfg.NoCompositeInner && !comps[ci].base && !comps[cj].base {
				continue
			}
			out := rel.DeriveProps(m.Cat, m.paramSel, j, []core.LogicalProps{comps[ci].props, comps[cj].props})
			if bout == nil || out.Rows < bout.Rows {
				bi, bj, bp, bout = ci, cj, pi, out
			}
		}
		if bout == nil {
			// Disconnected join graph (or no left-deep step remains):
			// out of scope.
			return nil
		}
		if len(comps) == 2 {
			// The last join produces the goal's class, which the search
			// prices with the class's own estimate; the greedy order's
			// estimate can fall below it.
			bout = memo.Group(memo.Find(root)).LogicalProps().(*rel.Props)
		}
		l, r := comps[bi], comps[bj]
		if m.Cfg.NoCompositeInner && !r.base {
			// The restricted join algorithms accept composite inputs
			// only on the left.
			l, r = r, l
		}
		merged := seedComp{
			props: bout,
			cost:  l.cost.Add(r.cost).Add(m.hashJoinCostProps(l.props, r.props, bout).cost()),
		}
		comps[bi] = merged
		comps = append(comps[:bj], comps[bj+1:]...)
		preds = append(preds[:bp], preds[bp+1:]...)
	}

	c := comps[0].cost
	if len(rp.Sort) > 0 {
		c = c.Add(m.sortCost(comps[0].props, comps[0].props.Rows))
	}
	return &core.SeedPlan{
		Cost: c,
		Desc: fmt.Sprintf("greedy hash-join order over %d relations", factors),
	}
}

// findComp locates the component whose schema holds the column; the
// catalog gives every column to exactly one base relation, so at most
// one component matches.
func findComp(comps []seedComp, c rel.ColID) int {
	for i := range comps {
		if comps[i].props.HasCol(c) {
			return i
		}
	}
	return -1
}

// collectJoinTree walks a class's original expression tree, splitting it
// into join predicates and non-join factors. Factors must be chains of
// SELECT/PROJECT over GET for the seeder to price them; anything else
// rejects the query. onPath guards against reference cycles in a merged
// memo.
func (m *Model) collectJoinTree(memo *core.Memo, gid core.GroupID, onPath map[core.GroupID]bool, comps *[]seedComp, preds *[]*rel.Join) bool {
	gid = memo.Find(gid)
	if onPath[gid] {
		return false
	}
	g := memo.Group(gid)
	if len(g.Exprs()) == 0 {
		return false
	}
	e := g.Exprs()[0]
	j, ok := e.Op.(*rel.Join)
	if !ok {
		c, ok := m.factorCost(memo, gid, onPath)
		if !ok {
			return false
		}
		*comps = append(*comps, seedComp{
			props: g.LogicalProps().(*rel.Props),
			cost:  c,
			base:  isBaseProps(g.LogicalProps().(*rel.Props)),
		})
		return true
	}
	onPath[gid] = true
	defer delete(onPath, gid)
	*preds = append(*preds, j)
	return m.collectJoinTree(memo, e.Inputs[0], onPath, comps, preds) &&
		m.collectJoinTree(memo, e.Inputs[1], onPath, comps, preds)
}

// isBaseProps reports whether the properties describe a single base
// relation (one bit set in the table set).
func isBaseProps(p *rel.Props) bool {
	return p.Tables != 0 && p.Tables&(p.Tables-1) == 0
}

// factorCost prices one non-join factor — a SELECT/PROJECT chain over a
// GET — with the shared per-operator cost helpers, serial and unordered.
func (m *Model) factorCost(memo *core.Memo, gid core.GroupID, onPath map[core.GroupID]bool) (Cost, bool) {
	gid = memo.Find(gid)
	if onPath[gid] {
		return Cost{}, false
	}
	g := memo.Group(gid)
	if len(g.Exprs()) == 0 {
		return Cost{}, false
	}
	e := g.Exprs()[0]
	switch e.Op.(type) {
	case *rel.Get:
		return m.scanCost(g.LogicalProps().(*rel.Props)).cost(), true
	case *rel.Select, *rel.Project:
		onPath[gid] = true
		defer delete(onPath, gid)
		in := memo.Group(memo.Find(e.Inputs[0]))
		inProps := in.LogicalProps().(*rel.Props)
		c, ok := m.factorCost(memo, e.Inputs[0], onPath)
		if !ok {
			return Cost{}, false
		}
		if _, isSel := e.Op.(*rel.Select); isSel {
			return c.Add(m.filterCost(inProps).cost()), true
		}
		return c.Add(m.projectCost(inProps).cost()), true
	}
	return Cost{}, false
}
