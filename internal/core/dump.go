package core

import (
	"fmt"
	"sort"
	"strings"
)

// Format renders the memo's equivalence classes, member expressions,
// and winner tables as text, in the spirit of the paper's description
// of the hash table of expressions and classes. It is the primary
// debugging view of a search.
func (m *Memo) Format() string {
	var b strings.Builder
	m.Groups(func(g *Group) {
		fmt.Fprintf(&b, "class %d  [%s]\n", g.ID(), g.LogicalProps())
		for _, e := range g.Exprs() {
			fmt.Fprintf(&b, "  expr   %s\n", m.canonString(e))
		}
		type entry struct {
			key  string
			text string
		}
		var winners []entry
		for _, w := range g.winners {
			props := w.props.String()
			if props == "" {
				props = "(any)"
			}
			suffix := ""
			if w.excluded != nil {
				suffix = fmt.Sprintf(" excluding %s", w.excluded)
			}
			switch {
			case w.plan != nil:
				winners = append(winners, entry{props + suffix,
					fmt.Sprintf("  winner %s%s: cost=%s %s\n", props, suffix, w.plan.Cost, w.plan)})
			case w.failedLimit != nil:
				winners = append(winners, entry{props + suffix,
					fmt.Sprintf("  winner %s%s: failed under limit %s\n", props, suffix, w.failedLimit)})
			}
		}
		sort.Slice(winners, func(i, j int) bool { return winners[i].key < winners[j].key })
		for _, w := range winners {
			b.WriteString(w.text)
		}
	})
	return b.String()
}

// canonString renders an expression with merge-resolved input classes.
func (m *Memo) canonString(e *Expr) string {
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
		fmt.Fprintf(&b, "%d", m.Find(in))
	}
	b.WriteByte(']')
	return b.String()
}

// Dot renders the plan as a Graphviz digraph: one node per physical
// operator, labeled with cost and delivered properties.
func (p *Plan) Dot() string {
	var b strings.Builder
	b.WriteString("digraph plan {\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	id := 0
	var walk func(n *Plan) int
	walk = func(n *Plan) int {
		me := id
		id++
		label := n.Op.String()
		if n.Delivered != nil && n.Delivered.String() != "" {
			label += "\\n" + n.Delivered.String()
		}
		label += "\\ncost=" + n.Cost.String()
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", me, strings.ReplaceAll(label, "\"", "'"))
		for _, in := range n.Inputs {
			child := walk(in)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", me, child)
		}
		return me
	}
	walk(p)
	b.WriteString("}\n")
	return b.String()
}
