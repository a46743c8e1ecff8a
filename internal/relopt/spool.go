package relopt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rel"
)

// Multi-query materialization operators. A shared-memo batch
// (core.Optimizer.OptimizeBatchCtx) can rewrite a
// subplan used by several queries into one Materialize feeding
// Reuse scans in the other plans; core.MaterializeSharedPlans makes
// that decision against the costs below. Neither operator is produced
// by an implementation rule — they exist only through the post-pass,
// so single-query optimization is unaffected.

// Materialize spools its input's result into a batch-shared buffer
// identified by ID, passing the rows through unchanged (order
// included).
type Materialize struct {
	// ID names the spool within the batch.
	ID core.SpoolID
}

// Name returns "materialize".
func (m *Materialize) Name() string { return "materialize" }

// String renders the operator with its spool ID.
func (m *Materialize) String() string { return fmt.Sprintf("materialize(#%d)", m.ID) }

// Reuse scans the spool a Materialize with the same ID filled earlier
// in the batch. It is a leaf: the subplan it replaces is not executed
// again.
type Reuse struct {
	// ID names the spool within the batch.
	ID core.SpoolID
}

// Name returns "reuse".
func (r *Reuse) Name() string { return "reuse" }

// String renders the operator with its spool ID.
func (r *Reuse) String() string { return fmt.Sprintf("reuse(#%d)", r.ID) }

var (
	_ core.PhysicalOp = (*Materialize)(nil)
	_ core.PhysicalOp = (*Reuse)(nil)
	_ core.Sharer     = (*Model)(nil)
)

// spoolCost prices one sequential pass of a class's result over the
// spool: its pages at spill-I/O weight plus per-tuple CPU. Writing the
// spool and scanning it back are the same pass in opposite directions,
// so Materialize and Reuse share the formula — the asymmetry that makes
// sharing win is that Materialize is paid once while Reuse replaces a
// whole recomputation.
func (m *Model) spoolCost(lp core.LogicalProps) core.Cost {
	p := lp.(*rel.Props)
	return NewCost(m.Cfg.Params.SpillIO*p.Pages(m.Cfg.Params.PageBytes), m.Cfg.Params.CPUTuple*p.Rows)
}

// MaterializeCost prices spooling the class's result once.
func (m *Model) MaterializeCost(lp core.LogicalProps) core.Cost { return m.spoolCost(lp) }

// ReuseCost prices one scan of the spooled result.
func (m *Model) ReuseCost(lp core.LogicalProps) core.Cost { return m.spoolCost(lp) }

// BuildMaterialize returns the Materialize operator for a spool.
func (m *Model) BuildMaterialize(id core.SpoolID, lp core.LogicalProps) core.PhysicalOp {
	return &Materialize{ID: id}
}

// BuildReuse returns the Reuse operator for a spool.
func (m *Model) BuildReuse(id core.SpoolID, lp core.LogicalProps) core.PhysicalOp {
	return &Reuse{ID: id}
}
