package relopt

import (
	"repro/internal/core"
	"repro/internal/rel"
)

// sortEnforcer builds the sort enforcer: it establishes a required sort
// order, relaxing the requirement passed to its input. The excluding
// vector it hands the engine is the original requirement, so algorithms
// that already qualified for it (merge-join delivering the very order
// being enforced) are not considered for the sort input — the paper's
// merge-join-under-sort example.
func (m *Model) sortEnforcer() *core.Enforcer {
	return &core.Enforcer{
		Name: "sort",
		Relax: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (relaxed, excluded core.PhysProps, ok bool) {
			rp := reqProps(required)
			if len(rp.Sort) == 0 {
				return nil, nil, false
			}
			if rp.Part.Kind == PartNone {
				return Any, required, true
			}
			return rp.WithoutSort(), required, true
		},
		Cost: core.EnfCost(func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) Cost {
			p := lp.(*rel.Props)
			rows := p.Rows
			rp := reqProps(required)
			if rp.Part.Kind == PartHash && rp.Part.Degree > 1 {
				// Partition-local sorts work on a fraction of the rows.
				rows /= float64(rp.Part.Degree)
			}
			return m.sortCost(p, rows)
		}),
		Delivered: func(ctx *core.RuleContext, required core.PhysProps, input core.PhysProps) core.PhysProps {
			rp := reqProps(required)
			in := input.(*PhysProps)
			if in.Part == rp.Part {
				return rp
			}
			return &PhysProps{Sort: rp.Sort, Part: in.Part}
		},
		Build: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
			return &Sort{Order: reqProps(required).Sort}
		},
		Promise: 1,
	}
}

// exchangeEnforcer builds the exchange enforcer of the parallel model:
// Volcano's network and parallelism operator, which establishes hash
// partitioning. Exchange destroys sort order — an enforcer may ensure
// one property but destroy another — so it only applies when no order is
// required on top of it; an order must be enforced above the exchange.
func (m *Model) exchangeEnforcer() *core.Enforcer {
	return &core.Enforcer{
		Name: "exchange",
		Relax: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (relaxed, excluded core.PhysProps, ok bool) {
			rp := reqProps(required)
			if rp.Part.Kind != PartHash || len(rp.Sort) > 0 {
				return nil, nil, false
			}
			return rp.WithoutPart(), required, true
		},
		Cost: core.EnfCost(func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) Cost {
			p := lp.(*rel.Props)
			// Every row is hashed, sent, and received once.
			return NewCost(0, p.Rows*m.Cfg.Params.CPUTuple*2)
		}),
		Build: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {
			return &Exchange{Part: reqProps(required).Part}
		},
		Promise: 1,
	}
}
