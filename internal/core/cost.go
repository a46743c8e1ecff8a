// Package core implements the model-independent search engine of the
// Volcano optimizer generator (Graefe & McKenna, ICDE 1993).
//
// The engine optimizes an expression over a logical algebra into the
// cheapest equivalent expression over a physical algebra, using directed
// dynamic programming: a top-down, goal-oriented search driven by
// required physical properties, with memoization of both optimal
// sub-plans and optimization failures, and branch-and-bound pruning.
//
// The engine makes no assumptions about the data model. Operators,
// algorithms, rules, costs, and properties are supplied by an optimizer
// implementor through the Model interface; cost, logical properties, and
// physical property vectors are abstract data types manipulated only
// through their methods, exactly as prescribed by the paper. As in the
// paper, where the implementor's cost ADT is compiled into the generated
// optimizer, the cost ADT is a Go type the branch-and-bound search is
// instantiated for (CostsOf): limits, partial sums and floors are added,
// subtracted and compared as plain values.
package core

// CostADT is the abstract data type for plan costs, as a constraint on
// the model's concrete cost type C. The paper leaves the representation
// to the optimizer implementor: it may be a single number (estimated
// elapsed time), a record (CPU time and I/O count as in System R), or
// any other type, as long as the arithmetic and comparison functions
// below are provided. The search engine is compiled against C (see
// CostsOf), so the arithmetic runs on values and boxes nothing.
//
// Implementations must be immutable values: Add returns a new value and
// leaves the receiver unchanged.
type CostADT[C any] interface {
	// Add returns the sum of the receiver and other.
	Add(other C) C
	// Sub returns the receiver minus other. It is used to pass cost
	// limits down during the optimization of subexpressions ("Limit -
	// TotalCost" in the paper's Figure 2). Subtracting from an
	// infinite cost must yield an infinite cost.
	Sub(other C) C
	// Less reports whether the receiver is strictly cheaper than other.
	Less(other C) bool
	// String renders the cost for plan display and tracing.
	String() string
}

// Cost is the stored form of a cost: a value of the model's cost type
// recorded where the engine keeps it beyond one search step — plan
// costs, winner and failure-memo entries, class floors, Stats and
// trace events — and what the model's cost functions and
// LowerBound return. The dynamic type is the model's concrete cost type,
// so a caller that knows the model may assert it (p.Cost.(relopt.Cost)).
// A value is boxed once, when it is recorded, never per arithmetic step.
type Cost interface {
	String() string
}

// ScalableCost is an optional extension of the cost ADT for cost types
// that can be multiplied by a scalar. Guided search uses it to relax an
// infeasible seed limit geometrically (iterative deepening) instead of
// jumping straight to the caller's limit. Cost types that do not
// implement it skip the intermediate stages: after a failed seed stage
// the search falls back to the caller's limit directly.
type ScalableCost[C any] interface {
	CostADT[C]
	// Scale returns the receiver multiplied by factor (factor > 1 for
	// limit relaxation). Like the other arithmetic methods it must not
	// mutate the receiver.
	Scale(factor float64) C
}

// MetricCost is an optional extension of the cost ADT for cost types
// that can project themselves onto a single scalar. The stochastic
// search policies use the metric to turn achieved plan costs into
// UCT rewards and floor priors into first-visit greedy choices; cost
// types without it still work, with selection degrading to promise
// order and visit counts (comparisons via Less only).
type MetricCost[C any] interface {
	CostADT[C]
	// Metric returns a scalar proxy for the cost, monotone with Less:
	// a.Less(b) implies a.Metric() < b.Metric() for comparable values.
	Metric() float64
}

// costMetric projects a stored cost onto its scalar metric when the
// cost type provides one.
func costMetric(c Cost) (float64, bool) {
	if m, ok := c.(interface{ Metric() float64 }); ok {
		return m.Metric(), true
	}
	return 0, false
}

// CostModel is the part of the Model interface that declares the cost
// ADT.
type CostModel interface {
	// Costs returns the model's cost declaration, built once by CostsOf.
	Costs() CostSpace
}

// CostSpace is a model's cost declaration: its concrete cost type, with
// the additive identity and an infinity. Only CostsOf makes one. The
// optimizer instantiates its branch-and-bound search for the declared
// type; the methods here serve the code that handles stored costs.
type CostSpace interface {
	// Infinite returns a cost greater than every achievable plan cost.
	// It is the default optimization limit for user queries.
	Infinite() Cost
	// Less reports whether stored cost a is strictly cheaper than b.
	Less(a, b Cost) bool

	// add sums two stored costs.
	add(a, b Cost) Cost
	// engine instantiates the search for the declared cost type.
	engine(o *Optimizer) engine
}

// CostsOf declares C as a model's cost type, with zero as its additive
// identity and infinite as the cost beyond every achievable plan. A
// model returns the declaration from Costs; build it once (a package
// variable), not per call.
func CostsOf[C CostADT[C]](zero, infinite C) CostSpace {
	return &costSpace[C]{zero: zero, inf: infinite, infBox: infinite}
}

// costSpace is the declaration CostsOf builds for cost type C.
type costSpace[C CostADT[C]] struct {
	zero, inf C
	infBox    Cost
}

func (cs *costSpace[C]) Infinite() Cost      { return cs.infBox }
func (cs *costSpace[C]) Less(a, b Cost) bool { return a.(C).Less(b.(C)) }
func (cs *costSpace[C]) add(a, b Cost) Cost  { return a.(C).Add(b.(C)) }

func (cs *costSpace[C]) engine(o *Optimizer) engine { return &search[C]{Optimizer: o, cs: cs} }

// scale multiplies c by factor when C is a ScalableCost; ok is false
// otherwise. Guided search calls it once per relaxed stage.
func scale[C CostADT[C]](c C, factor float64) (C, bool) {
	if s, ok := any(c).(ScalableCost[C]); ok {
		return s.Scale(factor), true
	}
	return c, false
}

// le reports c <= d under the ADT's ordering.
func le[C CostADT[C]](c, d C) bool { return !d.Less(c) }
