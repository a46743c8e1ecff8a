package relopt

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rel"
)

// ChoosePlan is the dynamic-plan operator for incompletely specified
// queries, one of the paper's stated requirements ("flexible cost
// models that permit generating dynamic plans"): the query contains a
// parameterized predicate whose constant binds at execution, so the
// optimizer produces one plan per selectivity region and the runtime
// picks among them once the parameter is known.
type ChoosePlan struct {
	// Pred is the parameterized predicate driving the choice.
	Pred rel.Pred
	// Stat holds the predicate column's statistics, used to
	// re-estimate selectivity at run time with the bound value.
	Stat rel.ColStat
	// Cutoffs are ascending selectivity upper bounds; alternative i
	// executes when the estimated selectivity is ≤ Cutoffs[i]. The
	// last cutoff is 1.
	Cutoffs []float64
}

// Name returns "choose-plan".
func (c *ChoosePlan) Name() string { return "choose-plan" }

// String renders the operator.
func (c *ChoosePlan) String() string {
	return fmt.Sprintf("choose-plan(%s; %d alternatives)", c.Pred, len(c.Cutoffs))
}

var _ core.PhysicalOp = (*ChoosePlan)(nil)

// DynamicResult reports a dynamic optimization.
type DynamicResult struct {
	// Plan is the root: either a single plan (every selectivity
	// assumption chose the same one) or a ChoosePlan node whose inputs
	// are the alternatives.
	Plan *core.Plan
	// Buckets are the selectivity assumptions swept.
	Buckets []float64
	// Alternatives counts distinct plans found.
	Alternatives int
}

// OptimizeDynamic is OptimizeDynamicCtx without a context, over a model
// it builds for the catalog and configuration. Its only caller is the
// benchmark module, which is pinned to this signature.
func OptimizeDynamic(cat *rel.Catalog, cfg Config, query *core.ExprTree, required core.PhysProps, buckets []float64) (*DynamicResult, error) {
	return OptimizeDynamicCtx(context.Background(), New(cat, cfg), query, required, buckets)
}

// OptimizeDynamicCtx optimizes a query containing exactly one
// parameterized predicate under each selectivity assumption in buckets
// (default: 0.01, 0.1, 0.5, 0.9; the caller's slice is not modified) and
// combines the distinct winners under a ChoosePlan operator. The query is
// inserted and explored once; before each later bucket the optimizer is
// rebound to that bucket's model with core.Optimizer.Rederive, which
// keeps the search results of every class the parameter does not reach.
// The assumption is the bucket model's own, a private copy of m, so
// neither m nor its catalog is written and one model serves concurrent
// sweeps.
// A canceled or expired ctx stops the sweep with core's typed stop error
// (matching core.ErrCanceled or core.ErrDeadline).
func OptimizeDynamicCtx(ctx context.Context, m *Model, query *core.ExprTree, required core.PhysProps, buckets []float64) (*DynamicResult, error) {
	buckets = append([]float64(nil), buckets...)
	if len(buckets) == 0 {
		buckets = []float64{0.01, 0.1, 0.5, 0.9}
	}
	sort.Float64s(buckets)
	pred, ok := findParamPred(query)
	if !ok {
		return nil, fmt.Errorf("relopt: query has no parameterized predicate")
	}
	meta := m.Cat.Column(pred.Col)
	stat := rel.ColStat{Distinct: float64(meta.Distinct), Min: meta.Min, Max: meta.Max}

	type alt struct {
		plan *core.Plan
		key  string
	}
	var alts []alt
	idxFor := make([]int, len(buckets)) // bucket → alternative index
	var opt *core.Optimizer
	var root core.GroupID
	for i, sel := range buckets {
		if bm := m.withParamSel(sel); opt == nil {
			opt = core.NewOptimizer(bm, nil)
			root = opt.InsertQuery(query)
		} else {
			opt.Rederive(bm)
		}
		plan, err := opt.OptimizeCtx(ctx, root, required)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			return nil, fmt.Errorf("relopt: no plan under selectivity assumption %g", sel)
		}
		key := plan.String()
		found := -1
		for j, a := range alts {
			if a.key == key {
				found = j
				break
			}
		}
		if found < 0 {
			found = len(alts)
			alts = append(alts, alt{plan: plan, key: key})
		}
		idxFor[i] = found
	}

	if len(alts) == 1 {
		return &DynamicResult{Plan: alts[0].plan, Buckets: buckets, Alternatives: 1}, nil
	}

	// Region boundaries: an alternative covers the buckets that chose
	// it; its cutoff is the midpoint between its last bucket and the
	// next alternative's first.
	cutoffs := make([]float64, len(alts))
	plans := make([]*core.Plan, len(alts))
	for j := range alts {
		plans[j] = alts[j].plan
		last := 0.0
		for i, sel := range buckets {
			if idxFor[i] == j && sel > last {
				last = sel
			}
		}
		next := 1.0
		for i, sel := range buckets {
			if idxFor[i] != j && sel > last && sel < next {
				next = sel
			}
		}
		cutoffs[j] = (last + next) / 2
	}
	cutoffs[len(cutoffs)-1] = 1

	first := alts[0].plan
	choose := &core.Plan{
		Op:        &ChoosePlan{Pred: pred, Stat: stat, Cutoffs: cutoffs},
		Inputs:    plans,
		Delivered: first.Delivered,
		Cost:      first.Cost, // representative; the true cost is parameter-dependent
		Group:     first.Group,
		LogProps:  first.LogProps,
	}
	return &DynamicResult{Plan: choose, Buckets: buckets, Alternatives: len(alts)}, nil
}

// findParamPred locates the single parameterized predicate.
func findParamPred(t *core.ExprTree) (rel.Pred, bool) {
	if t.Op != nil {
		if s, ok := t.Op.(*rel.Select); ok && s.Pred.IsParam() {
			return s.Pred, true
		}
	}
	for _, c := range t.Children {
		if p, ok := findParamPred(c); ok {
			return p, true
		}
	}
	return rel.Pred{}, false
}

// ChooseAlternative picks the plan index for a bound parameter value:
// the first alternative whose selectivity region contains the runtime
// estimate.
func (c *ChoosePlan) ChooseAlternative(value int64) int {
	sel := rel.ScalarSelectivity(c.Pred.Op, value, c.Stat)
	for i, cut := range c.Cutoffs {
		if sel <= cut {
			return i
		}
	}
	return len(c.Cutoffs) - 1
}
