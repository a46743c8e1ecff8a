package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// ioCPU is a two-component cost record, the shape of relopt's I/O and
// CPU cost: the search engine is instantiated for a struct, not a
// scalar. Less compares totals. Like toyCost it is a ScalableCost and a
// MetricCost, so every strategy takes the same path for both.
type ioCPU struct{ IO, CPU float64 }

func (c ioCPU) Add(o ioCPU) ioCPU { return ioCPU{c.IO + o.IO, c.CPU + o.CPU} }
func (c ioCPU) Sub(o ioCPU) ioCPU {
	if math.IsInf(c.IO, 1) {
		return c
	}
	return ioCPU{c.IO - o.IO, c.CPU - o.CPU}
}
func (c ioCPU) Less(o ioCPU) bool     { return c.total() < o.total() }
func (c ioCPU) Scale(f float64) ioCPU { return ioCPU{c.IO * f, c.CPU * f} }
func (c ioCPU) Metric() float64       { return c.total() }
func (c ioCPU) String() string        { return fmt.Sprintf("io=%.2f,cpu=%.2f", c.IO, c.CPU) }
func (c ioCPU) total() float64        { return c.IO + c.CPU }

var ioCPUCosts = core.CostsOf(ioCPU{}, ioCPU{math.Inf(1), math.Inf(1)})

// split turns a toy cost into three quarters I/O and one quarter CPU;
// both parts and their sums are exact in binary for the toy's small
// integer costs, so a plan's total equals its scalar cost.
func split(c core.Cost) core.Cost {
	f := float64(c.(toyCost))
	return ioCPU{IO: 0.75 * f, CPU: 0.25 * f}
}

// splitModel is the toy model with every cost split by split.
type splitModel struct{ core.Model }

func (m splitModel) Name() string          { return "toy-split" }
func (m splitModel) Costs() core.CostSpace { return ioCPUCosts }

func (m splitModel) ImplementationRules() []*core.ImplRule {
	var out []*core.ImplRule
	for _, r := range m.Model.ImplementationRules() {
		rr, orig := *r, r.Cost
		rr.Cost = func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost {
			return split(orig(ctx, b, required, alt))
		}
		out = append(out, &rr)
	}
	return out
}

func (m splitModel) Enforcers() []*core.Enforcer {
	var out []*core.Enforcer
	for _, e := range m.Model.Enforcers() {
		ee, orig := *e, e.Cost
		ee.Cost = func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost {
			return split(orig(ctx, lp, required))
		}
		out = append(out, &ee)
	}
	return out
}

// flooredToy adds an admissible floor to the toy model: every leaf of a
// class is scanned once at cost 1 (a mark-free class of weight w has
// (w+1)/2 leaves).
type flooredToy struct{ toyModel }

func (*flooredToy) LowerBound(lp core.LogicalProps) core.Cost {
	return toyCost((lp.(*toyProps).weight + 1) / 2)
}

// flooredSplit is flooredToy with split costs and floors.
type flooredSplit struct{ splitModel }

func (flooredSplit) LowerBound(lp core.LogicalProps) core.Cost {
	return split((&flooredToy{}).LowerBound(lp))
}

// TestStructCostMatchesScalar: the engine instantiated for the two-float
// record finds the same plans, node for node, at the same costs as for
// the scalar toy cost — exhaustive, guided (staged limits), floored, and
// under both stochastic policies — and leaves a memo that passes Check and
// CheckFixpoint.
func TestStructCostMatchesScalar(t *testing.T) {
	models := []struct {
		name          string
		scalar, split core.Model
	}{
		{"plain", &toyModel{}, splitModel{&toyModel{}}},
		{"floored", &flooredToy{}, flooredSplit{splitModel{&flooredToy{}}}},
	}
	configs := map[string]*core.Options{
		"exhaustive": nil,
		"guided":     {Guidance: core.GuidanceOptions{SeedPlanner: core.SyntacticSeedPlanner()}},
		"widening":   {Search: core.SearchOptions{Policy: core.PolicyWidening, Episodes: 32}},
		"mcts":       {Search: core.SearchOptions{Policy: core.PolicyMCTS, Episodes: 32, RandSeed: 7}},
	}
	trees := []*core.ExprTree{
		leftDeepPair("a", "b", "c"),
		leftDeepPair("a", "b", "c", "d", "e"),
		pair(pair(leaf("a"), leaf("b")), pair(leaf("c"), leaf("d"))),
	}
	for _, m := range models {
		for cname, opts := range configs {
			for ti, tree := range trees {
				for _, required := range []core.PhysProps{toyColor(0), toyColor(2)} {
					name := fmt.Sprintf("%s/%s/tree%d/%s", m.name, cname, ti, required)
					want := optimizeChecked(t, name, m.scalar, opts, tree, required)
					got := optimizeChecked(t, name, m.split, opts, tree, required)
					if want == nil || got == nil {
						continue
					}
					samePlan(t, name, want, got)
				}
			}
		}
	}
}

// optimizeChecked optimizes tree under model and opts, checks the memo,
// and returns the plan.
func optimizeChecked(t *testing.T, name string, model core.Model, opts *core.Options, tree *core.ExprTree, required core.PhysProps) *core.Plan {
	t.Helper()
	opt := core.NewOptimizer(model, opts)
	p, err := opt.Optimize(opt.InsertQuery(tree), required)
	if err != nil || p == nil {
		t.Errorf("%s: %s: plan=%v err=%v", name, model.Name(), p, err)
		return nil
	}
	coretest.CheckMemo(t, opt)
	coretest.CheckFixpoint(t, opt)
	return p
}

// samePlan compares two plans node by node: operator, class, delivered
// properties, and cost (the split cost's total against the scalar).
func samePlan(t *testing.T, name string, want, got *core.Plan) {
	t.Helper()
	w, g := float64(want.Cost.(toyCost)), got.Cost.(ioCPU)
	if want.Op.String() != got.Op.String() || want.Group != got.Group ||
		!want.Delivered.Equal(got.Delivered) || w != g.total() || len(want.Inputs) != len(got.Inputs) {
		t.Fatalf("%s: split-cost plan differs from the scalar one:\n%s\nwant\n%s", name, got.Format(), want.Format())
	}
	for i := range want.Inputs {
		samePlan(t, name, want.Inputs[i], got.Inputs[i])
	}
}
