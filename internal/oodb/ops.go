package oodb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen/minipath"
)

// GetSet scans a class extent.
type GetSet struct {
	// Cls is the class whose extent is scanned.
	Cls *Class
}

// Kind returns minipath.KindGETSET.
func (g *GetSet) Kind() core.OpKind { return minipath.KindGETSET }

// Arity returns 0.
func (g *GetSet) Arity() int { return 0 }

// ArgsEqual compares extents.
func (g *GetSet) ArgsEqual(o core.LogicalOp) bool { return g.Cls.Name == o.(*GetSet).Cls.Name }

// ArgsHash hashes the class name.
func (g *GetSet) ArgsHash() uint64 { return strHash(g.Cls.Name) }

// Name returns "GETSET".
func (g *GetSet) Name() string { return "GETSET" }

// String renders the operator.
func (g *GetSet) String() string { return "GETSET(" + g.Cls.Name + ")" }

// Materialize is the scope operator of the Open OODB project, one
// path expression step: it navigates a reference attribute of the
// scope's head class, making the referenced objects the new head.
type Materialize struct {
	// Attr is the reference attribute navigated.
	Attr string
}

// Kind returns minipath.KindMATERIALIZE.
func (m *Materialize) Kind() core.OpKind { return minipath.KindMATERIALIZE }

// Arity returns 1.
func (m *Materialize) Arity() int { return 1 }

// ArgsEqual compares attributes.
func (m *Materialize) ArgsEqual(o core.LogicalOp) bool { return m.Attr == o.(*Materialize).Attr }

// ArgsHash hashes the attribute.
func (m *Materialize) ArgsHash() uint64 { return strHash(m.Attr) }

// Name returns "MATERIALIZE".
func (m *Materialize) Name() string { return "MATERIALIZE" }

// String renders the operator.
func (m *Materialize) String() string { return "MATERIALIZE(" + m.Attr + ")" }

// CmpOp is a comparison in an object selection.
type CmpOp int8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpLT
	CmpGT
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpLT:
		return "<"
	case CmpGT:
		return ">"
	}
	return "?"
}

// Select filters objects by a scalar attribute of the head class.
type Select struct {
	// Attr is the scalar attribute tested.
	Attr string
	// Op compares the attribute with Val.
	Op CmpOp
	// Val is the constant compared against.
	Val int64
}

// Kind returns minipath.KindSELECT.
func (s *Select) Kind() core.OpKind { return minipath.KindSELECT }

// Arity returns 1.
func (s *Select) Arity() int { return 1 }

// ArgsEqual compares predicates.
func (s *Select) ArgsEqual(o core.LogicalOp) bool { return *s == *o.(*Select) }

// ArgsHash hashes the predicate.
func (s *Select) ArgsHash() uint64 {
	h := strHash(s.Attr)
	h = h*1099511628211 ^ uint64(uint8(s.Op))
	h = h*1099511628211 ^ uint64(s.Val)
	return h
}

// Name returns "SELECT".
func (s *Select) Name() string { return "SELECT" }

// String renders the operator.
func (s *Select) String() string { return fmt.Sprintf("SELECT(%s %s %d)", s.Attr, s.Op, s.Val) }

func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Props are the logical properties of an object-algebra intermediate
// result: the head class whose attributes are addressable — the "type"
// of the intermediate result in this many-sorted algebra, inspected by
// rule condition code — and the estimated object count.
type Props struct {
	// Head is the class whose attributes are currently addressable.
	Head *Class
	// Objects is the estimated cardinality.
	Objects float64
	// PathLen counts materialize steps applied so far.
	PathLen int
}

var _ core.LogicalProps = (*Props)(nil)

// String summarizes the properties.
func (p *Props) String() string {
	return fmt.Sprintf("head=%s objects=%.0f", p.Head.Name, p.Objects)
}
