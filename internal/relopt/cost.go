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
//
// Both components are integers in Unit steps, so Add and Sub are exact
// and associative: branch-and-bound's "Limit − TotalCost" leaves exactly
// the budget an input may spend, and a plan's cost does not depend on
// the order its terms were summed in. Every cost formula computes its
// terms in floating point and rounds them once, through NewCost. Sums
// saturate at a ceiling far above any plan's cost and strictly below
// Infinite.
type Cost struct {
	io, cpu int64
}

// Unit is the resolution of a Cost, in page I/Os.
const Unit = 1.0 / perUnit

const (
	// perUnit is the number of Units per page I/O.
	perUnit = 1e6
	// ceiling bounds each finite component, so a total of two finite
	// components never overflows and stays below Infinite's.
	ceiling = 1<<62 - 1
)

// Infinite is the unreachable cost used as the default optimization
// limit: its total exceeds every finite cost's.
var Infinite = Cost{io: math.MaxInt64}

var _ core.CostADT[Cost] = Cost{}

// NewCost rounds a formula's I/O and CPU terms, in page I/Os, to the
// nearest Unit. It is the one rounding a cost formula makes; terms
// beyond the ceiling saturate there.
func NewCost(io, cpu float64) Cost { return Cost{io: units(io), cpu: units(cpu)} }

// units rounds x page I/Os to Units, saturating at ±ceiling (NaN too).
func units(x float64) int64 {
	u := math.Round(x * perUnit)
	switch {
	case !(u < ceiling):
		return ceiling
	case u <= -ceiling:
		return -ceiling
	}
	return int64(u)
}

// sat clamps a sum of two components to ±ceiling.
func sat(x int64) int64 { return max(-ceiling, min(x, ceiling)) }

func (c Cost) inf() bool { return c.io == math.MaxInt64 }

// Units returns the exact total in Units.
func (c Cost) Units() int64 { return c.io + c.cpu }

// Total collapses the record into a single comparable magnitude, in page
// I/Os.
func (c Cost) Total() float64 {
	if c.inf() {
		return math.Inf(1)
	}
	return float64(c.Units()) / perUnit
}

// Add returns the componentwise sum; a sum with Infinite is Infinite.
func (c Cost) Add(o Cost) Cost {
	if c.inf() || o.inf() {
		return Infinite
	}
	return Cost{io: sat(c.io + o.io), cpu: sat(c.cpu + o.cpu)}
}

// Sub returns the componentwise difference; subtracting anything from
// Infinite leaves it infinite, and subtracting Infinite from a finite
// cost gives the floor below every finite cost.
func (c Cost) Sub(o Cost) Cost {
	switch {
	case c.inf():
		return c
	case o.inf():
		return Cost{io: -ceiling, cpu: -ceiling}
	}
	return Cost{io: sat(c.io - o.io), cpu: sat(c.cpu - o.cpu)}
}

// Less compares total magnitudes.
func (c Cost) Less(o Cost) bool { return c.Units() < o.Units() }

// Metric projects the record onto the scalar the comparisons already
// use; the stochastic search policies (core.MetricCost) turn it into
// UCT rewards and floor priors.
func (c Cost) Metric() float64 { return c.Total() }

var _ core.MetricCost[Cost] = Cost{}

// String renders the record.
func (c Cost) String() string {
	if c.inf() {
		return "inf"
	}
	return fmt.Sprintf("%.2f(io=%.1f,cpu=%.2f)", c.Total(), float64(c.io)/perUnit, float64(c.cpu)/perUnit)
}

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
