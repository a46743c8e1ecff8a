package relopt

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Cost is the relational model's cost ADT: a record of I/O and CPU cost,
// the structure the paper attributes to System R. The unit is "the time
// of one page I/O"; CPU costs are expressed in the same unit through the
// Params weights. The search engine is instantiated for this type (see
// Model.Costs) and performs all arithmetic and comparisons through its
// methods, never looking inside.
type Cost struct {
	// IO is the page-I/O component.
	IO float64
	// CPU is the processor component, in I/O-equivalent units.
	CPU float64
}

var _ core.CostADT[Cost] = Cost{}

// Total collapses the record into a single comparable magnitude.
func (c Cost) Total() float64 { return c.IO + c.CPU }

// Add returns the componentwise sum.
func (c Cost) Add(o Cost) Cost {
	return Cost{IO: c.IO + o.IO, CPU: c.CPU + o.CPU}
}

// Sub returns the componentwise difference; subtracting anything from an
// infinite cost leaves it infinite.
func (c Cost) Sub(o Cost) Cost {
	if math.IsInf(c.IO, 1) {
		return c
	}
	return Cost{IO: c.IO - o.IO, CPU: c.CPU - o.CPU}
}

// Less compares total magnitudes.
func (c Cost) Less(o Cost) bool {
	return c.Total() < o.Total()
}

// Scale returns the componentwise multiple; guided search uses it to
// relax an infeasible seed limit geometrically. Scaling an infinite cost
// leaves it infinite.
func (c Cost) Scale(factor float64) Cost {
	return Cost{IO: c.IO * factor, CPU: c.CPU * factor}
}

var _ core.ScalableCost[Cost] = Cost{}

// Metric projects the record onto the scalar the comparisons already
// use; the stochastic search policies (core.MetricCost) turn it into
// UCT rewards and floor priors.
func (c Cost) Metric() float64 { return c.Total() }

var _ core.MetricCost[Cost] = Cost{}

// String renders the record.
func (c Cost) String() string {
	if math.IsInf(c.IO, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f(io=%.1f,cpu=%.2f)", c.Total(), c.IO, c.CPU)
}

// Infinite is the unreachable cost used as the default optimization
// limit.
var Infinite = Cost{IO: math.Inf(1), CPU: math.Inf(1)}

// Params are the cost-model weights, all expressed in units of one page
// I/O. The defaults model the paper's setup: both I/O and CPU costs
// count, hash join proceeds without partition files, and sorting is a
// single-level merge.
type Params struct {
	// PageBytes is the storage page size.
	PageBytes int
	// CPUTuple is the cost of producing or copying one tuple.
	CPUTuple float64
	// CPUPred is the cost of one predicate evaluation.
	CPUPred float64
	// CPUCompare is the cost of one comparison during sorting/merging.
	CPUCompare float64
	// CPUHash is the cost of one hash-table insert or probe.
	CPUHash float64
	// SpillIO charges sorting its single-level merge: runs are written
	// once and read once, so SpillIO multiplies the input page count
	// twice (write + read).
	SpillIO float64
	// MemoryPages is the hash work space. The default exceeds every
	// Figure-4 table, so hybrid hash join "proceeds without partition
	// files" exactly as in the paper; experiments that study memory
	// pressure lower it.
	MemoryPages float64
}

// HashSpillIO prices the partition files of a hash operation whose
// build side exceeds the work space: the overflowing fraction of both
// inputs is written and read once.
func HashSpillIO(p Params, buildPages, probePages float64) float64 {
	if buildPages <= p.MemoryPages {
		return 0
	}
	frac := 1 - p.MemoryPages/buildPages
	return 2 * frac * (buildPages + probePages) * p.SpillIO
}

// DefaultParams returns the weights used by the experiments.
func DefaultParams() Params {
	return Params{
		PageBytes:   4096,
		CPUTuple:    0.001,
		CPUPred:     0.0005,
		CPUCompare:  0.0005,
		CPUHash:     0.0008,
		SpillIO:     1.0,
		MemoryPages: 256,
	}
}
