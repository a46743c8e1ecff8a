package core

// matchBindings enumerates every binding of pattern against the
// expression e, invoking fn for each. Multi-level patterns bind through
// equivalence classes: for each pattern child that is itself an operator
// pattern, every matching member expression of the corresponding input
// class yields a distinct binding, so a rule like join associativity
// fires once per equivalent shape of the inner join.
//
// Input classes reached through operator sub-patterns are explored first
// so the enumeration is complete; this is what makes the engine's
// rule-to-fixpoint exploration equivalent to the paper's interleaved
// transformation moves under exhaustive search.
//
// The binding handed to fn is built from recycled frames and is valid
// only for the duration of the call: code that retains it clones it
// (cloneBinding). fn returns false to stop the enumeration early.
func (m *Memo) matchBindings(e *Expr, pattern *Pattern, fn func(*Binding) bool) bool {
	if pattern.IsLeaf {
		panic("core: rule pattern root must be an operator pattern")
	}
	if !kindMatches(pattern.Kind, e.Op.Kind()) {
		return true
	}
	if len(pattern.Children) != len(e.Inputs) {
		return true
	}
	b := m.frame(e, m.Find(e.group), nil)
	ok := m.bindChildren(pattern, b, 0, nil, fn)
	m.releaseFrame(b)
	return ok
}

func kindMatches(pat, got OpKind) bool { return pat == AnyKind || pat == got }

// frame takes a Binding from the memo's free list, or allocates one when
// the list is empty. Frames come back through releaseFrame as the
// matcher's recursion unwinds, so a memo allocates only as many as its
// deepest enumeration (nested explorations included) has live at once.
func (m *Memo) frame(e *Expr, g GroupID, up *Binding) *Binding {
	var b *Binding
	if n := len(m.frames); n > 0 {
		b = m.frames[n-1]
		m.frames = m.frames[:n-1]
	} else {
		b = new(Binding)
	}
	b.Expr, b.Group, b.up = e, g, up
	return b
}

// releaseFrame returns a frame to the free list. Children is truncated
// but keeps its capacity, which is what saves the per-binding slice; the
// other fields are overwritten when the frame is next taken, and until
// then point only at expressions and frames the memo owns anyway.
func (m *Memo) releaseFrame(b *Binding) {
	b.Children = b.Children[:0]
	m.frames = append(m.frames, b)
}

// bindCont is the continuation of a nested match: once the sub-pattern
// binding under construction completes, it becomes child i of the
// binding above it (Binding.up) and the enumeration resumes at child i+1
// of pattern, then at next. The records live on the Go stack of the
// bindChildren activation that descended into the sub-pattern, which is
// why they hold no pointer into the memo: escape analysis does not tell
// a record's fields apart, and one field stored on the heap would move
// every record there.
type bindCont struct {
	pattern *Pattern
	i       int
	next    *bindCont
}

// bindChildren extends binding b of expression b.Expr with matches for
// pattern children starting at index i. A completed b is handed to the
// continuation k — the enclosing pattern level still to be matched — or,
// at the root (k == nil), to fn.
func (m *Memo) bindChildren(pattern *Pattern, b *Binding, i int, k *bindCont, fn func(*Binding) bool) bool {
	if i == len(pattern.Children) {
		if m.stats != nil {
			m.stats.Bindings++
		}
		if k == nil {
			return fn(b)
		}
		up := b.up
		up.Children = append(up.Children, b)
		ok := m.bindChildren(k.pattern, up, k.i+1, k.next, fn)
		up.Children = up.Children[:len(up.Children)-1]
		return ok
	}
	childPat := pattern.Children[i]
	inGroup := m.Find(b.Expr.Inputs[i])
	if childPat.IsLeaf {
		leaf := m.frame(nil, inGroup, nil)
		b.Children = append(b.Children, leaf)
		ok := m.bindChildren(pattern, b, i+1, k, fn)
		b.Children = b.Children[:len(b.Children)-1]
		m.releaseFrame(leaf)
		return ok
	}
	// A delta match (matchDelta) starts its one root-level loop past the
	// watermark. It is read before exploring, whose nested matches set
	// their own.
	from := 0
	if k == nil {
		from, m.from = m.from, 0
	}
	// An operator sub-pattern must see the input class fully expanded.
	m.exploreGroup(m.groups[inGroup-1])
	g := m.groups[m.Find(inGroup)-1]
	cont := bindCont{pattern: pattern, i: i, next: k}
	for j := from; j < len(g.exprs); j++ {
		sub := g.exprs[j]
		if sub.dead || !kindMatches(childPat.Kind, sub.Op.Kind()) ||
			len(childPat.Children) != len(sub.Inputs) {
			continue
		}
		cb := m.frame(sub, g.id, b)
		ok := m.bindChildren(childPat, cb, 0, &cont, fn)
		m.releaseFrame(cb)
		if !ok {
			return false
		}
	}
	return true
}

// exploreGroup expands a class to transformation-rule fixpoint: every
// rule is applied to every member expression (and to expressions added
// along the way) until no new equivalent expressions appear. Per-
// expression fired-rule masks guarantee each (expression, rule) pair is
// attempted once, so exploration terminates whenever the rule set
// generates a finite space.
//
// Exploration is semi-naive. An input class that gains members — by a
// merge, or by a derivation when it is explored again — can give a
// multi-level rule new bindings at an expression it has already fired
// on, and the growth marks the pair stale (markStale). A
// stale pair is attempted again, but a delta rule — one operator
// sub-pattern, whose inputs are leaves — binds only the input class's
// members beyond the watermark its last complete enumeration left
// (ruleMark): class lists only append, so every binding below it has
// fired. Other multi-level rules re-enumerate every binding.
//
// A rule an expression was born with switched off (ExprTree.Disabled) is
// never attempted on it, stale or not.
func (m *Memo) exploreGroup(g *Group) {
	g = m.groups[m.Find(g.id)-1]
	if g.explored || g.exploring || m.err != nil {
		return
	}
	// A merge may move the loop below onto another class, which an outer
	// frame may be exploring; the flag is this frame's to clear.
	opened := g
	g.exploring = true
	defer func() { opened.exploring = false }()

	rules := m.model.TransformationRules()
	ctx := m.ctx
	// One callback serves every (expression, rule) pair of this call; it
	// reads the rule being attempted and the current class through the
	// variables the loops below assign.
	var rule *TransformRule
	fire := func(b *Binding) bool {
		if rule.Condition != nil && !rule.Condition(ctx, b) {
			return true
		}
		if m.stats != nil {
			m.stats.RulesFired++
		}
		// Substitutes built through ctx live in the memo's scratch until
		// they have been inserted.
		mark := m.subst.mark()
		for _, sub := range rule.Apply(ctx, b) {
			m.insertSubstitute(sub, m.Find(g.id))
			if m.err != nil {
				break
			}
		}
		m.subst.release(mark)
		return m.err == nil
	}
	for {
		// Each pass attempts every (expression, rule) pair not yet
		// attempted or stale, and loops until a full pass finds nothing
		// left to attempt, i.e. at fixpoint: a merge during the pass may
		// have made an earlier pair stale.
		attempted := false
		for i := 0; i < len(g.exprs); i++ { // g.exprs may grow while iterating
			e := g.exprs[i]
			slot := 0 // e's watermark for the next delta rule
			for ri := range rules {
				rule = rules[ri]
				if e.dead {
					break
				}
				if !kindMatches(rule.Pattern.Kind, e.Op.Kind()) ||
					len(rule.Pattern.Children) != len(e.Inputs) {
					continue
				}
				pos := m.deltaPos[ri]
				if pos >= 0 {
					slot++
				}
				bit := uint64(1) << uint(ri)
				if e.disabled&bit != 0 || e.appliedRules&bit != 0 && e.stale&bit == 0 {
					continue
				}
				e.appliedRules |= bit
				e.stale &^= bit
				if m.bud != nil {
					// Budget checkpoint per (expression, rule) attempt:
					// together with the insertion tick this bounds how
					// far a fixpoint expansion can run past a stop.
					if err := m.bud.tick(); err != nil {
						m.err = err
						return
					}
				}
				attempted = true
				if pos < 0 {
					m.matchBindings(e, rule.Pattern, fire)
				} else {
					m.matchDelta(e, pos, slot-1, rule.Pattern, fire)
				}
				if m.err != nil {
					return
				}
				// A merge may have moved this class; re-resolve so the
				// iteration sees the surviving expression list.
				if moved := m.groups[m.Find(g.id)-1]; moved != g {
					g = moved
				}
			}
		}
		if !attempted {
			break
		}
	}
	g.explored = true
}

// ruleMark is a delta rule's watermark at one expression: the class its
// operator sub-pattern bound, and how many of that class's expressions
// the last complete enumeration reached.
type ruleMark struct {
	class GroupID
	n     int32
}

// matchDelta enumerates the bindings of delta rule pattern at e — its
// operator sub-pattern at input pos — that bind a member of the input
// class beyond the expression's watermark number slot, then advances the
// watermark. A class other than the one the watermark names (the input
// merged away since) is enumerated whole.
func (m *Memo) matchDelta(e *Expr, pos, slot int, pattern *Pattern, fn func(*Binding) bool) {
	if e.marks == 0 {
		n := 0
		for ri, r := range m.model.TransformationRules() {
			if m.deltaPos[ri] >= 0 && kindMatches(r.Pattern.Kind, e.Op.Kind()) &&
				len(r.Pattern.Children) == len(e.Inputs) {
				n++
			}
		}
		e.marks = int32(len(m.marks) + 1)
		m.marks = append(m.marks, make([]ruleMark, n)...)
	}
	// Explored here rather than by the matcher, so the class the loop
	// will walk is known; the matcher's own call then returns at once.
	in := m.Find(e.Inputs[pos])
	m.exploreGroup(m.groups[in-1])
	g := m.groups[m.Find(in)-1]
	mk := &m.marks[int(e.marks)-1+slot]
	if mk.class == g.id {
		m.from = int(mk.n)
	}
	m.matchBindings(e, pattern, fn)
	m.from = 0
	if m.err == nil {
		// Reached the end of g's list, or g merged away (an empty list
		// under a class that no longer resolves to itself).
		mk = &m.marks[int(e.marks)-1+slot]
		mk.class, mk.n = g.id, int32(len(g.exprs))
	}
}

// insertSubstitute inserts a rule substitute: the root lands in the
// matched class, inner nodes in their own (possibly new) classes.
func (m *Memo) insertSubstitute(t *ExprTree, target GroupID) (GroupID, bool) {
	if t.Op == nil {
		// A rule may return a bare class reference as substitute,
		// asserting that the matched class equals an existing one.
		ref := m.Find(t.Group)
		if ref != target {
			return m.merge(ref, target), true
		}
		return target, false
	}
	return m.insertNode(t, target)
}
