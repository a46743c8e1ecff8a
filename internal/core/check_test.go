package core

import (
	"strings"
	"testing"
)

// checkMemo is coretest.CheckMemo for this package's internal tests,
// which cannot import coretest without a cycle.
func checkMemo(tb testing.TB, o *Optimizer) {
	tb.Helper()
	if err := o.memo.Check(); err != nil {
		tb.Error(err)
	}
}

// TestMemoCheckDetectsCorruption: a checker that never fails proves
// nothing, so each invariant family is broken once by hand and Check
// must name it.
func TestMemoCheckDetectsCorruption(t *testing.T) {
	required := PhysProps(hpTint(1))
	fresh := func() (*Optimizer, *Group) {
		o, g := hpExplored(t, 4)
		if p, err := o.Optimize(g.ID(), required); err != nil || p == nil {
			t.Fatalf("optimize: plan=%v err=%v", p, err)
		}
		checkMemo(t, o)
		return o, g
	}
	cases := []struct {
		name    string
		corrupt func(o *Optimizer, g *Group)
		want    string
	}{
		{"in-progress", func(o *Optimizer, g *Group) {
			g.lookupWinner(required, nil).inProgress = true
		}, "left in progress"},
		{"winner props", func(o *Optimizer, g *Group) {
			w := g.lookupWinner(required, nil)
			cp := *w.plan
			cp.Delivered = hpTint(2)
			w.plan = &cp
		}, "does not cover the goal"},
		{"winner class", func(o *Optimizer, g *Group) {
			w := g.lookupWinner(required, nil)
			cp := *w.plan
			cp.Group = g.exprs[0].Inputs[0]
			w.plan = &cp
		}, "built for class"},
		{"exploring", func(o *Optimizer, g *Group) {
			g.exploring = true
		}, "under exploration"},
		{"parent link", func(o *Optimizer, g *Group) {
			o.memo.parent[0] = GroupID(len(o.memo.groups))
		}, "older classes"},
		{"dead class", func(o *Optimizer, g *Group) {
			leaf := o.memo.Group(g.exprs[0].Inputs[1])
			o.memo.parent[g.id-1] = leaf.id
		}, "merged-away class"},
		{"dead matches", func(o *Optimizer, g *Group) {
			for i, d := range o.memo.groups {
				if o.memo.parent[i] != d.id {
					d.matches = append(d.matches, g.matches[0])
					return
				}
			}
			t.Fatal("no merged-away class to corrupt")
		}, "merged-away class"},
		{"moves left on the stack", func(o *Optimizer, g *Group) {
			o.memo.moves = append(o.memo.moves, Move{Kind: MoveEnforcer})
		}, "move stack"},
		{"stray match", func(o *Optimizer, g *Group) {
			im := *g.matches[0]
			im.b = &Binding{Expr: o.memo.Group(g.exprs[0].Inputs[0]).exprs[0]}
			g.matches = append(g.matches, &im)
		}, "not a live member"},
		{"match past the list", func(o *Optimizer, g *Group) {
			g.matched = int32(len(g.exprs)) + 1
		}, "past its expression list"},
		{"stray expression", func(o *Optimizer, g *Group) {
			for i := len(g.exprs) - 1; ; i-- {
				if !g.exprs[i].dead {
					g.exprs = append(g.exprs[:i], g.exprs[i+1:]...)
					return
				}
			}
		}, "in no live class"},
		{"duplicate spelling", func(o *Optimizer, g *Group) {
			e := g.Exprs()[0]
			dup := &Expr{Op: e.Op, Inputs: e.Inputs, group: g.id}
			g.exprs = append(g.exprs, dup)
			o.memo.exprCount++
			head := o.memo.chain(dup.Op, dup.Inputs)
			dup.next, *head = *head, dup
		}, "two spellings"},
		{"split class", func(o *Optimizer, g *Group) {
			e := g.Exprs()[0]
			dup := &Expr{Op: e.Op, Inputs: e.Inputs}
			o.memo.newGroup(dup)
			o.memo.exprCount++
			dup.next, o.memo.table[0] = o.memo.table[0], dup
		}, "both hold"},
	}
	for _, c := range cases {
		o, g := fresh()
		c.corrupt(o, g)
		err := o.memo.Check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
