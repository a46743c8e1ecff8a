package core

import (
	"fmt"
	"strings"
)

// GroupID names an equivalence class inside a Memo. IDs are dense,
// starting at 1; 0 is the invalid group.
type GroupID int32

// InvalidGroup is the zero GroupID.
const InvalidGroup GroupID = 0

// Expr is one logical expression stored in the memo: an operator whose
// inputs are equivalence classes. Every expression belongs to exactly
// one group; equivalent expressions produced by transformation rules are
// collapsed into the same group.
type Expr struct {
	// Op is the logical operator at the root of this expression.
	Op LogicalOp
	// Inputs are the equivalence classes the operator consumes, one
	// per operator input.
	Inputs []GroupID

	// group is the equivalence class this expression belongs to.
	group GroupID
	// marks is one more than the index in Memo.marks of the expression's
	// first delta-rule watermark; 0 until one is recorded.
	marks int32
	// appliedRules records which transformation rules have already
	// fired with this expression as the binding root, so exhaustive
	// exploration terminates. Bit i corresponds to the rule at index
	// i in the model's transformation rule list.
	appliedRules uint64
	// stale has the bit of every applied multi-level rule that an input
	// class's growth may since have given new bindings (Memo.markStale).
	stale uint64
	// dead marks a retired spelling: a merge of one of its input classes
	// made it identical to another stored expression, which carries on
	// in its place. A dead expression is out of the hash table and
	// ignored by every walk of its class's expression list.
	dead bool
	// next chains expressions within the memo's hash table bucket.
	next *Expr
}

// Group returns the equivalence class this expression belongs to.
func (e *Expr) Group() GroupID { return e.group }

// String renders the expression with group references for its inputs,
// e.g. "JOIN(a.x=b.y)[2 5]".
func (e *Expr) String() string {
	if len(e.Inputs) == 0 {
		return e.Op.String()
	}
	var b strings.Builder
	b.WriteString(e.Op.String())
	b.WriteByte('[')
	for i, in := range e.Inputs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", in)
	}
	b.WriteByte(']')
	return b.String()
}

// exprHash hashes an expression's identity: kind, argument hash, and
// input groups. It must agree with exprEqual.
func exprHash(op LogicalOp, inputs []GroupID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(uint32(op.Kind())))
	mix(op.ArgsHash())
	for _, g := range inputs {
		mix(uint64(uint32(g)))
	}
	return h
}

// exprEqual reports whether an expression with the given operator and
// inputs denotes the same expression as e.
func exprEqual(e *Expr, op LogicalOp, inputs []GroupID) bool {
	if e.Op.Kind() != op.Kind() || len(e.Inputs) != len(inputs) {
		return false
	}
	for i, g := range e.Inputs {
		if g != inputs[i] {
			return false
		}
	}
	return e.Op.ArgsEqual(op)
}
