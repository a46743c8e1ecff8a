package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

// rdProps are toy logical properties Rederive can compare: the leaf
// count, and for a leaf its scan price. A PAIR's properties do not
// depend on any price.
type rdProps struct{ weight, scan int }

func (p *rdProps) String() string { return fmt.Sprintf("w=%d scan=%d", p.weight, p.scan) }

func (p *rdProps) Equal(o core.LogicalProps) bool {
	q, ok := o.(*rdProps)
	return ok && *p == *q
}

// rdModel is the toy model with one parameter: the leaf named param
// scans at price, every other leaf at 1.
type rdModel struct {
	toyModel
	param string
	price int
}

func (m *rdModel) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	if l, ok := op.(*toyLeaf); ok {
		p := &rdProps{weight: 1, scan: 1}
		if l.name == m.param {
			p.scan = m.price
		}
		return p
	}
	p := &rdProps{weight: 1}
	for _, in := range inputs {
		p.weight += in.(*rdProps).weight
	}
	return p
}

func (m *rdModel) ImplementationRules() []*core.ImplRule {
	rules := m.toyModel.ImplementationRules()
	scan := *rules[0]
	scan.Cost = core.AlgCost(func(ctx *core.RuleContext, b *core.Binding, _ core.PhysProps, _ core.InputReq) toyCost {
		return toyCost(ctx.LogProps(b.Group).(*rdProps).scan)
	})
	rules[0] = &scan
	return rules
}

// rederiveSweep optimizes the query for both toy requirements under each
// model in turn over one memo, calling Rederive between models, and
// checks every cost against a fresh optimization. It returns the number
// of classes each Rederive kept and the live class count.
func rederiveSweep(t *testing.T, query *core.ExprTree, models ...core.Model) (kept []int, live int) {
	t.Helper()
	opt := core.NewOptimizer(models[0], nil)
	root := opt.InsertQuery(query)
	for i, m := range models {
		if i > 0 {
			kept = append(kept, opt.Rederive(m))
		}
		for _, req := range []toyColor{0, 1} {
			got, err := opt.Optimize(root, req)
			coretest.CheckMemo(t, opt)
			ref := core.NewOptimizer(m, nil)
			want, ferr := ref.Optimize(ref.InsertQuery(query), req)
			if err != nil || ferr != nil || got == nil || want == nil {
				t.Fatalf("model %d, %v: optimize: %v / fresh: %v", i, req, err, ferr)
			}
			if got.Cost != want.Cost {
				t.Errorf("model %d, %v: cost %s after Rederive, %s fresh\n%s", i, req, got.Cost, want.Cost, got.Format())
			}
		}
	}
	opt.Memo().Groups(func(*core.Group) { live++ })
	return kept, live
}

// TestRederiveRecostsConsumers: re-pricing one leaf changes only that
// leaf's own properties — a PAIR's weight is the same at any price — yet
// every class consuming it, directly or through other classes, must be
// re-costed, or the root keeps the winner found at the old price. Classes
// that never reach the leaf keep their results, and re-deriving under an
// identical model keeps every class.
func TestRederiveRecostsConsumers(t *testing.T) {
	query := leftDeepPair("a", "b", "c", "d")
	cheap := &rdModel{param: "b", price: 1}
	dear := &rdModel{param: "b", price: 50}
	kept, live := rederiveSweep(t, query, cheap, dear, dear, cheap)
	if kept[0] == 0 || kept[0] >= live || kept[2] != kept[0] {
		t.Errorf("repricing kept %d and %d of %d classes; want the same share, some but not all", kept[0], kept[2], live)
	}
	if kept[1] != live {
		t.Errorf("an unchanged model kept %d of %d classes, want all", kept[1], live)
	}
}

// TestRederiveWithoutPropsEqualityRecostsAll: properties without
// core.PropsEqualer cannot be compared, so every class is re-costed.
func TestRederiveWithoutPropsEqualityRecostsAll(t *testing.T) {
	kept, live := rederiveSweep(t, leftDeepPair("a", "b", "c"), &toyModel{}, &toyModel{})
	if kept[0] != 0 || live == 0 {
		t.Errorf("Rederive kept %d of %d classes, want none", kept[0], live)
	}
}
