package core

import (
	"fmt"
	"slices"
)

// Check verifies the memo's invariants between searches and returns the
// first violation found, or nil. It is the test suite's oracle for the
// code that maintains the memo — insertion, merging, and the winner
// bookkeeping of FindBestPlan — and must only be called while no
// optimization is on the call stack. The invariants:
//
//   - no class, live or merged away, is left marked under exploration;
//   - union-find: every class resolves through Find to a live
//     representative (merges point younger classes at older ones, so
//     parent links only ever decrease), and a merged-away class holds no
//     expressions, winners, parents, or matches;
//   - congruence: every live expression sits in the expression list of
//     the class it names, its inputs name live classes, and no two live
//     expressions, in one class or in two, share (operator, inputs);
//     retired spellings are out of the hash table and counted by the
//     class that lists them;
//   - matches: a class's current implementation-rule matches bind live
//     members among the expressions they cover, within its list;
//   - winners: no entry is left in progress; a recorded plan delivers
//     properties covering the entry's goal and none covering its
//     excluded vector, and belongs to the entry's class;
//   - the move stack is empty: every FindBestPlan activation popped the
//     moves it pushed.
func (m *Memo) Check() error {
	if n := len(m.moves); n != 0 {
		return fmt.Errorf("core: memo check: %d moves are left on the move stack", n)
	}
	for i, g := range m.groups {
		id := GroupID(i + 1)
		if g.exploring {
			return fmt.Errorf("core: memo check: class %d is left marked under exploration", id)
		}
		if p := m.parent[i]; p < 1 || p > id {
			return fmt.Errorf("core: memo check: class %d has parent %d; merges must point at older classes", id, p)
		}
		if m.parent[i] != id && (g.exprs != nil || g.winners != nil || g.parents != nil || g.matches != nil) {
			return fmt.Errorf("core: memo check: merged-away class %d still holds expressions, winners, parents, or matches", id)
		}
	}

	// Walk the live classes, remembering every live expression in seen
	// under its hash.
	live := 0
	seen := make(map[uint64][]*Expr, m.exprCount)
	listed := make(map[*Expr]bool, m.exprCount)
	for i, g := range m.groups {
		if m.parent[i] != g.id {
			continue
		}
		retired := 0
		for _, e := range g.exprs {
			if e.group < 1 || int(e.group) > len(m.groups) || m.Find(e.group) != g.id {
				return fmt.Errorf("core: memo check: expression %s listed in class %d names class %d", e, g.id, e.group)
			}
			if listed[e] {
				return fmt.Errorf("core: memo check: expression %s listed twice in class %d", e, g.id)
			}
			listed[e] = true
			if e.dead {
				retired++
				continue
			}
			for _, in := range e.Inputs {
				if in < 1 || int(in) > len(m.groups) || m.parent[in-1] != in {
					return fmt.Errorf("core: memo check: expression %s has input class %d, which is not a live class", e, in)
				}
			}
			h := exprHash(e.Op, e.Inputs)
			for _, d := range seen[h] {
				if !exprEqual(d, e.Op, e.Inputs) {
					continue
				}
				if d.group == e.group {
					return fmt.Errorf("core: memo check: class %d holds two spellings of %s", g.id, e)
				}
				return fmt.Errorf("core: memo check: classes %d and %d both hold %s", d.group, g.id, e)
			}
			seen[h] = append(seen[h], e)
		}
		if retired != int(g.retired) {
			return fmt.Errorf("core: memo check: class %d lists %d retired spellings but counts %d", g.id, retired, g.retired)
		}
		if retired == len(g.exprs) {
			return fmt.Errorf("core: memo check: representative class %d has no expressions", g.id)
		}
		live += len(g.exprs) - retired
		for _, w := range g.winners {
			if err := m.checkWinner(g, w); err != nil {
				return err
			}
		}
	}
	stored := 0
	for _, e := range m.table {
		for ; e != nil; e = e.next {
			stored++
			if !listed[e] || e.dead {
				return fmt.Errorf("core: memo check: stored expression %s is in no live class", e)
			}
		}
	}
	if stored != m.exprCount || live != m.exprCount {
		return fmt.Errorf("core: memo check: %d expressions counted, %d in the hash table, %d in live classes", m.exprCount, stored, live)
	}
	// Matches a merge has since voided are skipped: they are dropped
	// before their next use.
	for i, g := range m.groups {
		if m.parent[i] != g.id || g.matchEpoch != m.mergeEpoch {
			continue
		}
		if int(g.matched) > len(g.exprs) {
			return fmt.Errorf("core: memo check: class %d has matched %d expressions, past its expression list of %d", g.id, g.matched, len(g.exprs))
		}
		for _, im := range g.matches {
			if e := im.b.Expr; e.dead || !slices.Contains(g.exprs[:g.matched], e) {
				return fmt.Errorf("core: memo check: class %d holds a match of %s, which is not a live member among its matched expressions", g.id, e)
			}
		}
	}
	return nil
}

// checkWinner verifies one winner-table entry of a live class.
func (m *Memo) checkWinner(g *Group, w *winner) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: memo check: winner entry class %d props=%s: %s", g.id, w.props, fmt.Sprintf(format, args...))
	}
	if w.inProgress {
		return fail("left in progress")
	}
	p := w.plan
	if p == nil {
		return nil
	}
	if p.Delivered == nil || !p.Delivered.Covers(w.props) {
		return fail("plan delivers %v, which does not cover the goal", p.Delivered)
	}
	if w.excluded != nil && p.Delivered.Covers(w.excluded) {
		return fail("plan delivers %s, covering the excluded vector %s", p.Delivered, w.excluded)
	}
	if p.Group < 1 || int(p.Group) > len(m.groups) || m.Find(p.Group) != g.id {
		return fail("plan was built for class %d", p.Group)
	}
	return nil
}

// CheckFixpoint verifies that exploration reached transformation-rule
// fixpoint, the property semi-naive exploration and the rules' birth
// masks must not lose. It first explores every live class — a search
// explores only the classes its goals reach, and binding through an
// unexplored class would "derive" what that class's own exploration
// produces — and then re-fires every transformation rule over every
// binding of every live expression, disabled bits ignored: each firing
// must derive only expressions already present in the class. It returns
// the first firing that adds an expression or merges two classes,
// leaving the memo as that firing left it. Call it only after a search
// that ran to completion, with none on the call stack; it changes no
// counter.
func (m *Memo) CheckFixpoint() error {
	stats, bud := m.stats, m.bud
	m.stats, m.bud = nil, nil
	defer func() { m.stats, m.bud = stats, bud }()
	// Exploring one class can re-open another (markStale), so sweep
	// until a pass finds every live class explored.
	for open := true; open && m.err == nil; {
		open = false
		for i := 0; i < len(m.groups); i++ {
			if g := m.groups[i]; m.parent[i] == g.id && !g.explored {
				m.exploreGroup(g)
				open = true
			}
		}
	}
	if m.err != nil {
		return m.err
	}

	var err error
	for i, g := range m.groups {
		if m.parent[i] != g.id {
			continue
		}
		for _, e := range g.exprs {
			for _, rule := range m.model.TransformationRules() {
				if e.dead || !kindMatches(rule.Pattern.Kind, e.Op.Kind()) ||
					len(rule.Pattern.Children) != len(e.Inputs) {
					continue
				}
				m.matchBindings(e, rule.Pattern, func(b *Binding) bool {
					if rule.Condition != nil && !rule.Condition(m.ctx, b) {
						return true
					}
					exprs, epoch := m.exprCount, m.mergeEpoch
					mark := m.subst.mark()
					for _, sub := range rule.Apply(m.ctx, b) {
						m.insertSubstitute(sub, g.id)
					}
					m.subst.release(mark)
					if m.exprCount != exprs || m.mergeEpoch != epoch {
						err = fmt.Errorf("core: fixpoint check: rule %s on %s in class %d derives a new expression or merges classes",
							rule.Name, e, g.id)
					}
					return err == nil
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return m.err
}
