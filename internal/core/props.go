package core

// LogicalProps is the abstract data type for logical properties of an
// intermediate result: schema, expected size, type of the result in a
// many-sorted algebra, and so on. Logical properties belong to
// equivalence classes — they can be derived from any member expression
// before optimization — and the engine never inspects them; they are
// passed back to the model's property, cost, and condition functions.
//
// Selectivity estimation is encapsulated in the model's logical property
// functions, as the paper requires.
type LogicalProps interface {
	// String renders the properties for tracing and debugging.
	String() string
}

// PropsEqualer is an optional extension of LogicalProps. Equal reports
// whether other holds exactly the same properties, estimates compared bit
// for bit. Optimizer.Rederive keeps the search results of a class whose
// re-derived properties are Equal to its old ones; without the method,
// it re-costs every class.
type PropsEqualer interface {
	LogicalProps
	Equal(other LogicalProps) bool
}

// PhysProps is the abstract data type for a physical property vector:
// sort order, partitioning, compression status, assembledness, or
// whatever the optimizer implementor defines. Physical properties attach
// to specific plans and algorithm choices, never to equivalence classes.
//
// The engine requires equality, a covering test, and a hash consistent
// with equality (the winner table inside each equivalence class is keyed
// by physical property vector).
type PhysProps interface {
	// Equal reports whether two vectors are identical.
	Equal(other PhysProps) bool
	// Covers reports whether a result having the receiver's properties
	// satisfies a request for other. Covering is at least reflexive:
	// p.Covers(p) must hold. A typical example: output sorted on (A,B)
	// covers a requirement of sorted on (A).
	Covers(other PhysProps) bool
	// Hash returns a hash consistent with Equal.
	Hash() uint64
	// String renders the vector for tracing and plan display.
	String() string
}

// physKey is the winner-table key derived from a physical property
// vector. Hash collisions are resolved by chaining on Equal.
type physKey uint64

func keyOf(p PhysProps) physKey { return physKey(p.Hash()) }
