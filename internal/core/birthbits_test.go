package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// TestBirthBitsSwitchRulesOff: a substitute born with a rule switched off
// never fires it, while an expression the derivation only re-finds keeps
// its own bits, and the fixpoint check, which ignores the bits, still
// finds nothing to derive.
func TestBirthBitsSwitchRulesOff(t *testing.T) {
	cases := []struct {
		name      string
		bornOff   bool
		spellings []*core.ExprTree
		fired     int
	}{
		// PAIR(a,b) commutes to PAIR(b,a), which commutes back.
		{"plain", false, []*core.ExprTree{pair(leaf("a"), leaf("b"))}, 2},
		// PAIR(b,a) is born with commutativity off.
		{"born-off", true, []*core.ExprTree{pair(leaf("a"), leaf("b"))}, 1},
		// PAIR(b,a) was a query of its own before commutativity re-found
		// it: it keeps its bits and commutes back.
		{"found-keeps-bits", true, []*core.ExprTree{pair(leaf("b"), leaf("a")), pair(leaf("a"), leaf("b"))}, 2},
	}
	for _, c := range cases {
		opt := core.NewOptimizer(&toyModel{commuteBornOff: c.bornOff}, nil)
		var root core.GroupID
		for _, q := range c.spellings {
			root = opt.InsertQuery(q)
		}
		if err := opt.Explore(root); err != nil {
			t.Fatal(err)
		}
		if got := opt.Stats().RulesFired; got != c.fired {
			t.Errorf("%s: %d rules fired, want %d", c.name, got, c.fired)
		}
		if n := len(opt.Memo().Group(root).Exprs()); n != 2 {
			t.Errorf("%s: the pair class holds %d expressions, want 2", c.name, n)
		}
		coretest.CheckMemo(t, opt)
		coretest.CheckFixpoint(t, opt)
	}
}

// TestExploreReachesEveryClass: Explore expands every class the query
// references, also those no rule pattern of the root binds. No rule
// matches MARK in the toy model without mark-elim, so exploring only the
// root would leave the pair below it uncommuted.
func TestExploreReachesEveryClass(t *testing.T) {
	opt := core.NewOptimizer(&toyModel{}, nil)
	root := opt.InsertQuery(core.Node(&toyMark{}, pair(leaf("a"), pair(leaf("b"), leaf("c")))))
	if err := opt.Explore(root); err != nil {
		t.Fatal(err)
	}
	opt.Memo().Groups(func(g *core.Group) {
		if !g.Explored() {
			t.Errorf("class %d is unexplored", g.ID())
		}
	})
	// Each leaf pairs with each two-leaf class, either side first.
	pairs := opt.Memo().Group(opt.Memo().Group(root).Exprs()[0].Inputs[0]).Exprs()
	if len(pairs) != 6 {
		t.Errorf("the pair class holds %d expressions, want 6", len(pairs))
	}
	coretest.CheckMemo(t, opt)
	coretest.CheckFixpoint(t, opt)
}
