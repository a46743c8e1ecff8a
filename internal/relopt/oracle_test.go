package relopt_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

// referenceModel is the relational model under the join rules it had
// before they became duplicate-free: plain commutativity and one
// associativity direction, every substitute born with no rule switched
// off. It is the completeness oracle of TestJoinRulesSpanReferenceSpace
// and exists only in this test.
type referenceModel struct {
	*relopt.Model
	rules []*core.TransformRule
}

func (r *referenceModel) TransformationRules() []*core.TransformRule { return r.rules }

func newReferenceModel(m *relopt.Model) *referenceModel {
	r := &referenceModel{Model: m}
	r.rules = []*core.TransformRule{
		{
			Name:    "join-commute",
			Pattern: core.P(rel.KindJoin, core.Leaf(), core.Leaf()),
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				return ctx.Substitutes(ctx.Node(b.Expr.Op,
					ctx.ClassRef(b.Children[1].Group), ctx.ClassRef(b.Children[0].Group)))
			},
			Promise: 1,
		},
		{
			Name: "join-assoc",
			Pattern: core.P(rel.KindJoin,
				core.P(rel.KindJoin, core.Leaf(), core.Leaf()), core.Leaf()),
			Condition: func(ctx *core.RuleContext, b *core.Binding) bool {
				top := b.Expr.Op.(*rel.Join)
				bp := ctx.LogProps(b.Children[0].Children[1].Group).(*rel.Props)
				cp := ctx.LogProps(b.Children[1].Group).(*rel.Props)
				return (bp.HasCol(top.A) || cp.HasCol(top.A)) && (bp.HasCol(top.B) || cp.HasCol(top.B))
			},
			Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
				inner := b.Children[0]
				return ctx.Substitutes(ctx.Node(inner.Expr.Op,
					ctx.ClassRef(inner.Children[0].Group),
					ctx.Node(b.Expr.Op, ctx.ClassRef(inner.Children[1].Group), ctx.ClassRef(b.Children[1].Group))))
			},
			Promise: 1,
		},
	}
	// The other rules are the model's own, with the birth masks cleared.
	for _, rule := range m.TransformationRules() {
		if strings.HasPrefix(rule.Name, "join-") {
			continue
		}
		c := *rule
		c.Apply = func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {
			subs := rule.Apply(ctx, b)
			for _, s := range subs {
				clearDisabled(s)
			}
			return subs
		}
		r.rules = append(r.rules, &c)
	}
	return r
}

func clearDisabled(t *core.ExprTree) {
	t.Disabled = 0
	for _, c := range t.Children {
		clearDisabled(c)
	}
}

// oracleInput is one query the two rule sets must explore alike.
type oracleInput struct {
	name     string
	tree     *core.ExprTree
	required core.PhysProps
}

// oracleFamily is a set of inputs whose rule firings are summed.
type oracleFamily struct {
	name   string
	inputs []oracleInput
}

// oracleFamilies draws the oracle's inputs at one seed: generated
// left-deep select-join trees at 2–8 relations, the same trees made bushy
// by random valid rotations, the trees with every selection hoisted above
// the joins (up to 5 relations, since select-commute makes that space
// grow factorially), and statements shaped like the executor's generated
// SQL: residual filters, ranges, set operations, GROUP BY, ORDER BY.
func oracleFamilies(seed int64) (*rel.Catalog, []oracleFamily) {
	const perLevel, statements = 15, 300
	src := datagen.New(seed)
	cat := src.Catalog(10)
	rng := rand.New(rand.NewSource(seed))
	fams := []oracleFamily{{name: "left-deep"}, {name: "bushy"}, {name: "hoisted"}, {name: "statements"}}
	for n := 2; n <= 8; n++ {
		for i := 0; i < perLevel; i++ {
			q := src.SelectJoinQuery(cat, n, datagen.ShapeRandom)
			var req core.PhysProps
			if q.OrderBy != rel.InvalidCol {
				req = relopt.SortedOn(q.OrderBy)
			}
			name := fmt.Sprintf("seed %d, %d relations, query %d", seed, n, i)
			fams[0].inputs = append(fams[0].inputs, oracleInput{name: name, tree: q.Root, required: req})
			fams[1].inputs = append(fams[1].inputs, oracleInput{name: name, tree: rotate(cat, rng, q.Root, 3*n), required: req})
			if n <= 5 {
				fams[2].inputs = append(fams[2].inputs, oracleInput{name: name, tree: hoist(rotate(cat, rng, q.Root, 3*n)), required: req})
			}
		}
	}
	for i := 0; i < statements; i++ {
		sql := oracleStatement(rng, len(cat.Tables()))
		st, err := sqlish.Parse(cat, sql)
		if err != nil {
			panic(fmt.Sprintf("%q: %v", sql, err))
		}
		fams[3].inputs = append(fams[3].inputs, oracleInput{name: sql, tree: st.Tree, required: st.Required})
	}
	return cat, fams
}

// tablesOf returns the tables a tree reads.
func tablesOf(t *core.ExprTree, into map[string]bool) map[string]bool {
	if g, ok := t.Op.(*rel.Get); ok {
		into[g.Tab.Name] = true
	}
	for _, c := range t.Children {
		tablesOf(c, into)
	}
	return into
}

// within reports whether both columns of j come from the trees x and y.
func within(cat *rel.Catalog, j *rel.Join, x, y *core.ExprTree) bool {
	tabs := tablesOf(y, tablesOf(x, map[string]bool{}))
	return tabs[cat.TableOf(j.A).Name] && tabs[cat.TableOf(j.B).Name]
}

// rotate applies up to steps random valid commutations and
// re-associations to the join nodes of t, returning a new tree.
func rotate(cat *rel.Catalog, rng *rand.Rand, t *core.ExprTree, steps int) *core.ExprTree {
	for ; steps > 0; steps-- {
		var joins []**core.ExprTree
		var walk func(p **core.ExprTree)
		walk = func(p **core.ExprTree) {
			if _, ok := (*p).Op.(*rel.Join); ok {
				joins = append(joins, p)
			}
			for i := range (*p).Children {
				walk(&(*p).Children[i])
			}
		}
		t = copyTree(t)
		walk(&t)
		if len(joins) == 0 {
			return t
		}
		p := joins[rng.Intn(len(joins))]
		j := *p
		l, r := j.Children[0], j.Children[1]
		switch rng.Intn(3) {
		case 0:
			*p = core.Node(j.Op, r, l)
		case 1: // (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)
			if lj, ok := l.Op.(*rel.Join); ok && within(cat, j.Op.(*rel.Join), l.Children[1], r) {
				*p = core.Node(lj, l.Children[0], core.Node(j.Op, l.Children[1], r))
			}
		case 2: // A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C
			if rj, ok := r.Op.(*rel.Join); ok && within(cat, j.Op.(*rel.Join), l, r.Children[0]) {
				*p = core.Node(rj, core.Node(j.Op, l, r.Children[0]), r.Children[1])
			}
		}
	}
	return t
}

func copyTree(t *core.ExprTree) *core.ExprTree {
	c := *t
	c.Children = make([]*core.ExprTree, len(t.Children))
	for i, ch := range t.Children {
		c.Children[i] = copyTree(ch)
	}
	return &c
}

// hoist moves every selection of a select-join tree above its joins.
func hoist(t *core.ExprTree) *core.ExprTree {
	var sels []core.LogicalOp
	var strip func(t *core.ExprTree) *core.ExprTree
	strip = func(t *core.ExprTree) *core.ExprTree {
		if s, ok := t.Op.(*rel.Select); ok {
			sels = append(sels, s)
			return strip(t.Children[0])
		}
		c := *t
		c.Children = make([]*core.ExprTree, len(t.Children))
		for i, ch := range t.Children {
			c.Children[i] = strip(ch)
		}
		return &c
	}
	out := strip(t)
	for _, s := range sels {
		out = core.Node(s, out)
	}
	return out
}

// oracleStatement draws one statement of the executor tests' generated
// shape over the datagen catalog's tables R1..Rn: a chain of one to
// three tables joined on ja, some links with a residual jb inequality,
// two-sided ranges on v, and then a projection, an ORDER BY, a GROUP BY
// with every aggregate, or the INTERSECT or UNION of the chain with a
// two-table chain from its first table.
func oracleStatement(rng *rand.Rand, tables int) string {
	tname := func(i int) string { return fmt.Sprintf("R%d", i) }
	k := 1 + rng.Intn(3)
	first := 1 + rng.Intn(tables-k+1)
	var from, where []string
	for i := 0; i < k; i++ {
		tab := tname(first + i)
		from = append(from, tab)
		if i > 0 {
			where = append(where, fmt.Sprintf("%s.ja = %s.ja", tname(first+i-1), tab))
			if rng.Intn(3) == 0 {
				where = append(where, fmt.Sprintf("%s.jb <> %s.jb", tname(first+i-1), tab))
			}
		}
		if rng.Intn(2) == 0 {
			lo := rng.Intn(900)
			where = append(where, fmt.Sprintf("%s.v >= %d", tab, lo), fmt.Sprintf("%s.v < %d", tab, lo+50+rng.Intn(300)))
		}
	}
	t0 := from[0]
	tail := " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		tail += " WHERE " + strings.Join(where, " AND ")
	}
	switch rng.Intn(4) {
	case 3:
		u := tname(1 + (first+rng.Intn(tables-1))%tables)
		setOp := []string{"INTERSECT", "UNION"}[rng.Intn(2)]
		return fmt.Sprintf("SELECT %s.id, %s.ja%s %s SELECT %s.id, %s.ja FROM %s, %s WHERE %s.ja = %s.ja AND %s.v >= %d",
			t0, t0, tail, setOp, t0, t0, t0, u, t0, u, u, rng.Intn(900))
	case 0:
		return fmt.Sprintf("SELECT %s.id, %s.v%s", t0, from[k-1], tail)
	case 1:
		return fmt.Sprintf("SELECT %s.ja, %s.v, %s.id%s ORDER BY %s.ja", t0, t0, from[k-1], tail, t0)
	default:
		return fmt.Sprintf("SELECT %s.jb, COUNT(*), SUM(%s.v), MIN(%s.id), MAX(%s.v)%s GROUP BY %s.jb",
			t0, t0, t0, from[k-1], tail, t0)
	}
}

// space maps every live class of a memo to its logical identity and
// returns, per identity, the class's expressions spelled over the
// identities of their inputs. A class's identity is read off its first
// expression: a select-join block is its sorted base inputs and sorted
// predicates, a chain of one set operation its sorted inputs, anything
// else its operator over its inputs. Equivalent classes of the two
// memos thus share an identity whichever spelling founded them.
func space(m *core.Memo) (map[string][]string, error) {
	ids := map[core.GroupID]string{}
	var identity func(g core.GroupID) string
	identity = func(g core.GroupID) string {
		g = m.Find(g)
		if id, ok := ids[g]; ok {
			return id
		}
		e := m.Group(g).Exprs()[0]
		var id string
		switch e.Op.(type) {
		case *rel.Select, *rel.Join:
			var leaves, preds []string
			var block func(e *core.Expr)
			block = func(e *core.Expr) {
				preds = append(preds, e.Op.String())
				for _, in := range e.Inputs {
					switch f := m.Group(in).Exprs()[0]; f.Op.(type) {
					case *rel.Select, *rel.Join:
						block(f)
					default:
						leaves = append(leaves, identity(in))
					}
				}
			}
			block(e)
			slices.Sort(leaves)
			slices.Sort(preds)
			id = "{" + strings.Join(leaves, " ") + " | " + strings.Join(preds, " ") + "}"
		case *rel.Intersect, *rel.Union:
			var leaves []string
			var chain func(e *core.Expr)
			chain = func(e *core.Expr) {
				for _, in := range e.Inputs {
					if f := m.Group(in).Exprs()[0]; f.Op.Kind() == e.Op.Kind() {
						chain(f)
					} else {
						leaves = append(leaves, identity(in))
					}
				}
			}
			chain(e)
			slices.Sort(leaves)
			id = e.Op.String() + "{" + strings.Join(leaves, " ") + "}"
		default:
			id = spell(e, identity)
		}
		ids[g] = id
		return id
	}
	out := map[string][]string{}
	var err error
	m.Groups(func(g *core.Group) {
		id := identity(g.ID())
		if _, dup := out[id]; dup && err == nil {
			err = fmt.Errorf("two live classes have identity %s", id)
		}
		var exprs []string
		for _, e := range g.Exprs() {
			exprs = append(exprs, spell(e, identity))
		}
		slices.Sort(exprs)
		out[id] = exprs
	})
	return out, err
}

// spell renders an expression over the identities of its input classes.
func spell(e *core.Expr, identity func(core.GroupID) string) string {
	parts := []string{e.Op.String()}
	for _, in := range e.Inputs {
		parts = append(parts, identity(in))
	}
	return strings.Join(parts, " ")
}

// oracleRun optimizes one input under one model with pruning, explores
// everything the query references, and optimizes it again under
// NoPruning. It returns the explored memo's space, both optimal costs
// and the first search's rule firings.
func oracleRun(t *testing.T, model core.Model, in oracleInput, fixpoint bool) (map[string][]string, [2]relopt.Cost, int) {
	t.Helper()
	var costs [2]relopt.Cost
	var fired int
	var sp map[string][]string
	for i, opts := range []*core.Options{nil, {Search: core.SearchOptions{NoPruning: true}}} {
		opt := core.NewOptimizer(model, opts)
		root := opt.InsertQuery(in.tree)
		plan, err := opt.Optimize(root, in.required)
		if err != nil || plan == nil {
			t.Fatalf("%s under %T: no plan (%v)", in.name, model, err)
		}
		costs[i] = plan.Cost.(relopt.Cost)
		if i > 0 {
			continue
		}
		fired = opt.Stats().RulesFired
		coretest.CheckMemo(t, opt)
		if fixpoint {
			coretest.CheckFixpoint(t, opt)
		}
		if err := opt.ExploreCtx(context.Background(), root); err != nil {
			t.Fatal(err)
		}
		if sp, err = space(opt.Memo()); err != nil {
			t.Fatalf("%s under %T: %v", in.name, model, err)
		}
	}
	return sp, costs, fired
}

// TestJoinRulesSpanReferenceSpace is the completeness gate of the
// duplicate-free join rules: on every input, exploring every class
// under them yields exactly the classes and, class by class, exactly
// the expressions that plain commutativity and associativity yield
// (referenceModel), and the optimal plan costs the same with pruning
// and under NoPruning. Across each family of inputs the duplicate-free
// rules must also fire no more often than the reference rules.
func TestJoinRulesSpanReferenceSpace(t *testing.T) {
	for _, seed := range []int64{1993, 1994, 20260925} {
		cat, fams := oracleFamilies(seed)
		model := relopt.New(cat, relopt.DefaultConfig())
		ref := newReferenceModel(model)
		for _, fam := range fams {
			var fired, refFired int
			for _, in := range fam.inputs {
				got, costs, n := oracleRun(t, model, in, true)
				want, refCosts, refN := oracleRun(t, ref, in, false)
				fired += n
				refFired += refN
				for i, mode := range []string{"pruned", "NoPruning"} {
					if c, r := costs[i], refCosts[i]; c != r {
						t.Errorf("%s %s: %s cost %v, reference %v", fam.name, in.name, mode, c, r)
					}
				}
				for id, exprs := range want {
					if g, ok := got[id]; !ok {
						t.Errorf("%s %s: class %s missing", fam.name, in.name, id)
					} else if !slices.Equal(g, exprs) {
						t.Errorf("%s %s: class %s holds %q, reference %q", fam.name, in.name, id, g, exprs)
					}
				}
				for id := range got {
					if _, ok := want[id]; !ok {
						t.Errorf("%s %s: class %s not in the reference space", fam.name, in.name, id)
					}
				}
			}
			if fired > refFired {
				t.Errorf("seed %d %s: %d rule firings, reference %d", seed, fam.name, fired, refFired)
			}
		}
	}
}
