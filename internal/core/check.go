package core

import "fmt"

// Check verifies the memo's invariants between searches and returns the
// first violation found, or nil. It is the test suite's oracle for the
// code that maintains the memo — insertion, merging, and the winner
// bookkeeping of FindBestPlan — and must only be called while no
// optimization is on the call stack. The invariants:
//
//   - union-find: every class resolves through Find to a live
//     representative (merges point younger classes at older ones, so
//     parent links only ever decrease), and a merged-away class holds no
//     expressions, winners, or parents (an empty move cache may remain:
//     an activation whose class merges away during its own exploration
//     still opens one before it notices);
//   - expressions: every stored expression sits in the expression list
//     of the class it names, its inputs resolve to live classes, and no
//     two expressions of different classes share (operator, canonical
//     inputs) — within one class a merge of input classes can leave two
//     spellings of the same expression, because merge does not rehash
//     the parents of the classes it unifies;
//   - winners: no entry is left in progress; a recorded plan delivers
//     properties covering the entry's goal and none covering its
//     excluded vector, costs exactly the entry's recorded cost, and
//     belongs to the entry's class.
func (m *Memo) Check() error {
	live := 0
	for i, g := range m.groups {
		id := GroupID(i + 1)
		if p := m.parent[i]; p < 1 || p > id {
			return fmt.Errorf("core: memo check: class %d has parent %d; merges must point at older classes", id, p)
		}
		if m.parent[i] == id {
			if len(g.exprs) == 0 {
				return fmt.Errorf("core: memo check: representative class %d has no expressions", id)
			}
			live += len(g.exprs)
			continue
		}
		if g.exprs != nil || g.winners != nil || g.parents != nil {
			return fmt.Errorf("core: memo check: merged-away class %d still holds expressions, winners, or parents", id)
		}
	}

	// Walk the live classes. Every expression is re-spelled over
	// canonical inputs — stored inputs may predate a merge, which would
	// hide two classes holding the same expression — and remembered in
	// seen under its canonical hash, tagged with its class.
	seen := make(map[uint64][]*Expr, m.exprCount)
	listed := make(map[*Expr]bool, m.exprCount)
	for i, g := range m.groups {
		if m.parent[i] != g.id {
			continue
		}
		for _, e := range g.exprs {
			if e.group < 1 || int(e.group) > len(m.groups) || m.Find(e.group) != g.id {
				return fmt.Errorf("core: memo check: expression %s listed in class %d names class %d", e, g.id, e.group)
			}
			if listed[e] {
				return fmt.Errorf("core: memo check: expression %s listed twice in class %d", e, g.id)
			}
			listed[e] = true
			canon := &Expr{Op: e.Op, Inputs: make([]GroupID, len(e.Inputs)), group: g.id}
			for j, in := range e.Inputs {
				if in < 1 || int(in) > len(m.groups) {
					return fmt.Errorf("core: memo check: expression %s has input class %d, out of range", e, in)
				}
				canon.Inputs[j] = m.Find(in)
			}
			h := exprHash(canon.Op, canon.Inputs)
			for _, d := range seen[h] {
				if d.group != g.id && exprEqual(d, canon.Op, canon.Inputs) {
					return fmt.Errorf("core: memo check: classes %d and %d both hold %s", d.group, g.id, canon)
				}
			}
			seen[h] = append(seen[h], canon)
		}
		for _, w := range g.winners {
			for ; w != nil; w = w.next {
				if err := m.checkWinner(g, w); err != nil {
					return err
				}
			}
		}
	}
	stored := 0
	for _, e := range m.table {
		for ; e != nil; e = e.next {
			stored++
			if !listed[e] {
				return fmt.Errorf("core: memo check: stored expression %s is in no live class", e)
			}
		}
	}
	if stored != m.exprCount || live != m.exprCount {
		return fmt.Errorf("core: memo check: %d expressions counted, %d in the hash table, %d in live classes", m.exprCount, stored, live)
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
	if p.Cost.Less(w.cost) || w.cost.Less(p.Cost) {
		return fail("recorded cost %s but the plan costs %s", w.cost, p.Cost)
	}
	if p.Group < 1 || int(p.Group) > len(m.groups) || m.Find(p.Group) != g.id {
		return fail("plan was built for class %d", p.Group)
	}
	return nil
}
