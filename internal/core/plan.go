package core

import (
	"fmt"
	"strings"
)

// Plan is a physical algebra expression: the optimizer's output. Each
// node records the algorithm or enforcer chosen, the physical properties
// it delivers, its total (subtree) cost, and the equivalence class it
// implements.
type Plan struct {
	// Op is the algorithm or enforcer at the root of this plan.
	Op PhysicalOp
	// Inputs are the plans feeding the algorithm.
	Inputs []*Plan
	// Delivered is the physical property vector the plan's output
	// actually has. Generated optimizers verify, as one of many
	// consistency checks, that Delivered covers the property vector
	// that was requested.
	Delivered PhysProps
	// Cost is the total estimated cost of the plan subtree, including
	// all inputs. Costs are exact (CostADT), so the root algorithm's own
	// cost is Cost minus its inputs' costs.
	Cost Cost
	// Group is the equivalence class this plan implements.
	Group GroupID
	// LogProps are the logical properties of the result, copied from
	// the group for the convenience of plan consumers (the execution
	// engine needs schemas and cardinality estimates).
	LogProps LogicalProps
}

// String renders the plan as a single line, e.g.
// "merge-join(sort(scan R), sort(scan S))".
func (p *Plan) String() string {
	if len(p.Inputs) == 0 {
		return p.Op.String()
	}
	var b strings.Builder
	b.WriteString(p.Op.String())
	b.WriteByte('(')
	for i, in := range p.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(in.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Format renders the plan as an indented tree with costs and delivered
// properties, suitable for EXPLAIN-style output.
func (p *Plan) Format() string {
	var b strings.Builder
	p.format(&b, 0)
	return b.String()
}

func (p *Plan) format(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s  (cost=%s", p.Op.String(), p.Cost)
	if p.Delivered != nil {
		if s := p.Delivered.String(); s != "" {
			fmt.Fprintf(b, ", props=%s", s)
		}
	}
	b.WriteString(")\n")
	for _, in := range p.Inputs {
		in.format(b, depth+1)
	}
}

// Count returns the number of nodes in the plan tree.
func (p *Plan) Count() int {
	n := 1
	for _, in := range p.Inputs {
		n += in.Count()
	}
	return n
}

// Walk visits every node of the plan in pre-order.
func (p *Plan) Walk(fn func(*Plan)) {
	fn(p)
	for _, in := range p.Inputs {
		in.Walk(fn)
	}
}
