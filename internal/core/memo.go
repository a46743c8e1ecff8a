package core

import (
	"fmt"
	"unsafe"
)

// Memo is the hash table of expressions and equivalence classes at the
// heart of the search engine. It detects redundant derivations of the
// same logical expression — algebraic transformation systems always
// include the possibility of deriving the same expression in several
// different ways — and collapses them, so each expression is optimized
// at most once per physical property requirement.
//
// The memo is reinitialized for each query being optimized, matching the
// paper's current design (longer-lived partial results are future work).
type Memo struct {
	model Model

	// groups[i] holds the class with GroupID i+1.
	groups []*Group
	// parent implements union-find over classes: two classes are
	// merged when a transformation derives, in one class, an
	// expression already present in another. parent[i] is the parent
	// of GroupID i+1; a root is its own parent.
	parent []GroupID
	// table holds the heads of the expressions' identity-hash chains
	// (Expr.next); its length is a power of two, doubled when the memo
	// stores twice as many expressions as it has chains.
	table []*Expr

	// costs is the model's cost declaration; winner merges compare the
	// stored costs through it.
	costs CostSpace

	exprCount int
	stats     *Stats
	opts      *Options
	err       error

	// mergeEpoch counts class unifications. A merge can create new rule
	// bindings for expressions matched earlier (their input classes gain
	// members), so class match lists and collected moves record the
	// epoch they were made at and are voided when it has advanced.
	// Between merges — in particular through the whole cost-analysis
	// phase of a typical search, where transformations have already
	// reached fixpoint — they stay valid and incremental collection does
	// no rework.
	mergeEpoch uint64
	// Semi-naive exploration (exploreGroup). deltaPos classifies the
	// transformation rules by index: the input position of a delta rule's
	// one operator sub-pattern, -1 for every other rule. staleAt[d-1] has
	// the bit of every rule whose pattern reaches more than d levels below
	// its root: the rules a class gaining members can give new bindings at
	// an expression d levels above it (markStale).
	deltaPos []int
	staleAt  []uint64
	// marks holds the delta rules' watermarks, one run per expression
	// (Expr.marks); from is where the next delta match's root-level loop
	// starts (matchDelta).
	marks []ruleMark
	from  int
	// ctx is the rule context handed to condition and apply code,
	// hoisted here so exploration does not allocate one per class.
	ctx *RuleContext
	// inputs is the stack insert lookups canonicalize input classes on:
	// Insert pushes its arguments, InsertTree the classes of a node's
	// children as its recursion returns them. An input copy is only
	// allocated when an expression is actually stored.
	inputs []GroupID
	// props is newGroup's scratch for the input properties handed to the
	// model's property function.
	props []LogicalProps
	// frames is the matcher's free list of binding frames.
	frames []*Binding
	// subst is the scratch rule substitutes are built in.
	subst substScratch
	// leaves[g-1] is the retained leaf binding of class g (cloneBinding).
	leaves []*Binding
	// flat is collectMoves' scratch for sharing leaf-only bindings
	// (newMatch).
	flat []*implMatch
	// moves is the search's move stack: each FindBestPlan activation
	// collects its goal's moves into a segment above those of the goals
	// below it on the call stack, and truncates the stack back on
	// return, so it is empty between optimization calls.
	moves []Move
	// Slabs for what the memo stores: expressions, their input lists,
	// and the class matches with their bindings.
	exprs    slab[Expr]
	ids      slab[GroupID]
	matches  slab[implMatch]
	bindings slab[Binding]
	children slab[*Binding]

	// bud is the armed budget of the current optimization call, shared
	// with the Optimizer; the memo ticks it on insertions and rule
	// attempts — the units of work that dominate when a search is stuck
	// expanding the space rather than costing plans. Nil when no budget
	// or cancellation is in force.
	bud *budgetState
}

// NewMemo creates an empty memo for the given model.
func NewMemo(model Model, opts *Options, stats *Stats) *Memo {
	m := &Memo{
		model: model,
		costs: model.Costs(),
		table: make([]*Expr, 8),
		stats: stats,
		opts:  opts,
	}
	for i, rule := range model.TransformationRules() {
		m.deltaPos = append(m.deltaPos, deltaPos(rule.Pattern))
		for d := 1; d < depth(rule.Pattern); d++ {
			if len(m.staleAt) < d {
				m.staleAt = append(m.staleAt, 0)
			}
			m.staleAt[d-1] |= 1 << uint(i)
		}
	}
	m.ctx = &RuleContext{Memo: m, Model: model}
	return m
}

// depth returns the number of operator levels a pattern spans.
func depth(p *Pattern) int {
	if p.IsLeaf {
		return 0
	}
	d := 0
	for _, c := range p.Children {
		d = max(d, depth(c))
	}
	return d + 1
}

// deltaPos returns the input position of a pattern's operator
// sub-pattern when it has exactly one and that one's inputs are all
// leaves — the shape semi-naive exploration re-fires from a watermark —
// and -1 otherwise.
func deltaPos(p *Pattern) int {
	pos := -1
	for i, c := range p.Children {
		if c.IsLeaf {
			continue
		}
		if pos >= 0 || depth(c) > 1 {
			return -1
		}
		pos = i
	}
	return pos
}

// Model returns the data model this memo optimizes.
func (m *Memo) Model() Model { return m.model }

// Err returns the first budget or consistency error encountered.
func (m *Memo) Err() error { return m.err }

// GroupCount returns the number of equivalence classes created,
// including classes that were later merged away.
func (m *Memo) GroupCount() int { return len(m.groups) }

// ExprCount returns the number of distinct logical expressions stored.
func (m *Memo) ExprCount() int { return m.exprCount }

// Find resolves a class through merges to its current representative.
func (m *Memo) Find(g GroupID) GroupID {
	for m.parent[g-1] != g {
		// Path halving keeps chains short.
		m.parent[g-1] = m.parent[m.parent[g-1]-1]
		g = m.parent[g-1]
	}
	return g
}

// Group returns the equivalence class named by g, resolving merges.
func (m *Memo) Group(g GroupID) *Group {
	return m.groups[m.Find(g)-1]
}

// Groups calls fn for every live (unmerged) class.
func (m *Memo) Groups(fn func(*Group)) {
	for i, g := range m.groups {
		if m.parent[i] == g.id {
			fn(g)
		}
	}
}

// newGroup creates a fresh class holding e and derives its logical
// properties from the member expression.
func (m *Memo) newGroup(e *Expr) *Group {
	id := GroupID(len(m.groups) + 1)
	// The property function reads its inputs and keeps none of them, so
	// one scratch slice serves every class.
	inProps := m.props[:0]
	for _, in := range e.Inputs {
		inProps = append(inProps, m.Group(in).LogicalProps())
	}
	m.props = inProps
	g := &Group{
		id:       id,
		exprs:    []*Expr{e},
		logProps: m.model.DeriveLogicalProps(e.Op, inProps),
	}
	e.group = id
	m.groups = append(m.groups, g)
	m.parent = append(m.parent, id)
	if m.stats != nil {
		m.stats.Groups++
	}
	return g
}

// canon canonicalizes input class references through merges.
func (m *Memo) canon(inputs []GroupID) []GroupID {
	for i, g := range inputs {
		if r := m.Find(g); r != g {
			inputs[i] = r
		}
	}
	return inputs
}

// lookup finds the expression (op, inputs) in the hash table, if stored.
// Inputs must already be canonical.
func (m *Memo) lookup(op LogicalOp, inputs []GroupID) *Expr {
	for e := *m.chain(op, inputs); e != nil; e = e.next {
		if exprEqual(e, op, inputs) {
			return e
		}
	}
	return nil
}

// Insert adds the expression (op, inputs) to the memo. If target is
// InvalidGroup the expression joins an existing class when one already
// contains it, or founds a new class. If target names a class and the
// expression is found in a different class, the two classes are merged:
// the derivation proves them equivalent (the paper's Figure 3 discusses
// exactly this creation and unification of classes during associativity).
//
// The returned class is the (representative) class now containing the
// expression; created reports whether the expression was new.
func (m *Memo) Insert(op LogicalOp, inputs []GroupID, target GroupID) (GroupID, bool) {
	base := len(m.inputs)
	m.inputs = append(m.inputs, inputs...)
	g, created := m.insertCanon(op, m.inputs[base:], target, 0)
	m.inputs = m.inputs[:base]
	return g, created
}

// insertCanon is Insert over a caller-owned buffer it may canonicalize
// in place. The lookup runs over that buffer; a private copy of the
// canonical inputs is made only when the expression is new and actually
// stored, so duplicate derivations — the common case during exploration
// — allocate nothing. A new expression is born with the transformation
// rules in disabled switched off; a duplicate keeps its own bits.
func (m *Memo) insertCanon(op LogicalOp, inputs []GroupID, target GroupID, disabled uint64) (GroupID, bool) {
	if m.err != nil {
		return target, false
	}
	if m.bud != nil {
		// Amortized budget checkpoint: insertion is the unit of work of
		// exploration, so a runaway transformation fixpoint hits a poll
		// within budgetPollInterval insertions.
		if err := m.bud.tick(); err != nil {
			m.err = err
			return target, false
		}
	}
	if op.Arity() != len(inputs) {
		panic(fmt.Sprintf("core: operator %s has arity %d but %d inputs supplied",
			op.Name(), op.Arity(), len(inputs)))
	}
	inputs = m.canon(inputs)
	if target != InvalidGroup {
		target = m.Find(target)
	}
	if e := m.lookup(op, inputs); e != nil {
		home := m.Find(e.group)
		if target != InvalidGroup && home != target {
			return m.merge(home, target), false
		}
		return home, false
	}
	if m.opts != nil && m.opts.Budget.MaxExprs > 0 && m.exprCount >= m.opts.Budget.MaxExprs {
		m.err = ErrMemoBudget
		return target, false
	}
	if len(inputs) == 0 {
		inputs = nil
	} else {
		inputs = append(m.ids.take(len(inputs))[:0], inputs...)
	}
	e := &m.exprs.take(1)[0]
	e.Op, e.Inputs, e.disabled = op, inputs, disabled
	m.link(e)
	m.exprCount++
	if m.stats != nil {
		m.stats.Exprs++
	}
	for _, in := range inputs {
		ig := m.groups[in-1]
		ig.parents = append(ig.parents, e)
	}
	if target == InvalidGroup {
		return m.newGroup(e).id, true
	}
	g := m.groups[target-1]
	e.group = target
	g.exprs = append(g.exprs, e)
	m.markStale(g, 1)
	return target, true
}

// merge unifies two classes proven equivalent and returns the surviving
// representative. Expressions move to the survivor; winner tables keep
// the cheaper entry per property vector, and in-progress marks and
// failure limits carry over to the survivor.
//
// The merge keeps the memo congruence-closed: every live consumer of the
// merged-away class is rehashed over canonical inputs (rehash). A
// consumer that thereby becomes identical to another stored expression
// is retired, and when the two live in different classes those classes
// are merged in turn, recursively, until no two live expressions share a
// canonical spelling.
func (m *Memo) merge(a, b GroupID) GroupID {
	a, b = m.Find(a), m.Find(b)
	if a == b {
		return a
	}
	// Keep the older class as representative for stable IDs.
	if b < a {
		a, b = b, a
	}
	ga, gb := m.groups[a-1], m.groups[b-1]
	m.parent[b-1] = a
	// gb's list ends here, so its retired spellings are dropped rather
	// than moved: nothing can index into the copy yet.
	for _, e := range gb.exprs {
		if !e.dead {
			e.group = a
			ga.exprs = append(ga.exprs, e)
		}
	}
	gb.exprs, gb.retired = nil, 0
	for _, w := range gb.winners {
		dst := ga.ensureWinnerKeyed(w.key, w.props, w.excluded)
		if dst.plan == nil || (w.plan != nil && m.costs.Less(w.plan.Cost, dst.plan.Cost)) {
			dst.plan = w.plan
		}
		// A goal on the merged-away class that is still on the call
		// stack must stay visible as in-progress through the
		// representative, or a cyclic derivation could re-enter it
		// and loop.
		if w.inProgress {
			dst.inProgress = true
		}
		// Failures survive with their strongest limit, symmetric
		// with the representative's own entries, which also predate
		// the unification.
		if w.failedLimit != nil &&
			(dst.failedLimit == nil || m.costs.Less(dst.failedLimit, w.failedLimit)) {
			dst.failedLimit = w.failedLimit
		}
	}
	gb.winners = nil
	// The matches of the merged-away class die with it; those of every
	// other class (including ga's) are voided lazily through the epoch
	// bump, since any of them may bind new expressions through the
	// enlarged class.
	gb.matches = nil
	m.mergeEpoch++
	// The merged class must be (re-)explored: rules may now fire on the
	// union of expressions. Every expression that consumes either side,
	// or consumes one that does, up to the deepest rule pattern, may now
	// bind through new members; markStale re-opens their classes.
	ga.explored = false
	moved := gb.parents
	ga.parents = append(ga.parents, gb.parents...)
	gb.parents = nil
	m.markStale(ga, 1)
	if m.stats != nil {
		m.stats.Merges++
	}
	// The consumers of gb now name a merged-away class: re-key them.
	for _, p := range moved {
		if !p.dead {
			m.rehash(p)
		}
	}
	return m.Find(a)
}

// markStale marks every live consumer of g, d levels above a class that
// gained members — by a merge, or by a new expression derived into it —
// stale for the rules whose patterns reach that deep, and re-opens its
// class; then it recurses to their consumers while deeper patterns
// remain. Only multi-level rules can gain bindings this way: a
// single-operator rule binds input classes as opaque leaves.
func (m *Memo) markStale(g *Group, d int) {
	for _, p := range g.parents {
		if p.dead {
			continue
		}
		pg := m.groups[m.Find(p.group)-1]
		pg.explored = false
		if d <= len(m.staleAt) {
			p.stale |= m.staleAt[d-1]
		}
		if d < len(m.staleAt) {
			m.markStale(pg, d+1)
		}
	}
}

// rehash re-keys a live expression whose inputs may name merged-away
// classes: it unlinks the expression from its hash bucket, canonicalizes
// its inputs in place and looks the new spelling up. If another live
// expression already has that spelling, this one is retired and the two
// classes, if different, are merged; otherwise it is relinked under the
// new hash.
func (m *Memo) rehash(p *Expr) {
	link := m.chain(p.Op, p.Inputs)
	for *link != p {
		link = &(*link).next
	}
	*link = p.next
	m.canon(p.Inputs)
	if twin := m.lookup(p.Op, p.Inputs); twin != nil {
		p.dead, p.next = true, nil
		m.exprCount--
		m.groups[m.Find(p.group)-1].retired++
		m.merge(p.group, twin.group)
		return
	}
	m.link(p)
}

// chain returns the head of the hash chain an expression (op, inputs)
// belongs on.
func (m *Memo) chain(op LogicalOp, inputs []GroupID) **Expr {
	return &m.table[exprHash(op, inputs)&uint64(len(m.table)-1)]
}

// link puts a stored expression at the head of its chain, first doubling
// the table when it holds twice as many expressions as chains.
func (m *Memo) link(e *Expr) {
	if m.exprCount >= 2*len(m.table) {
		old := m.table
		m.table = make([]*Expr, 2*len(old))
		for _, x := range old {
			for x != nil {
				next, head := x.next, m.chain(x.Op, x.Inputs)
				x.next, *head = *head, x
				x = next
			}
		}
	}
	head := m.chain(e.Op, e.Inputs)
	e.next, *head = *head, e
}

// InsertTree inserts a whole expression tree, bottom-up. Leaf references
// splice in existing classes. The root joins target (see Insert); inner
// nodes join their existing class or found new ones.
func (m *Memo) InsertTree(t *ExprTree, target GroupID) GroupID {
	if t.Op == nil {
		return m.Find(t.Group)
	}
	g, _ := m.insertNode(t, target)
	return g
}

// insertNode inserts the operator node t, its children first. The
// children's classes are collected on the inputs stack above whatever
// an enclosing insertNode has pushed, and popped before returning.
func (m *Memo) insertNode(t *ExprTree, target GroupID) (GroupID, bool) {
	base := len(m.inputs)
	for _, c := range t.Children {
		g := m.InsertTree(c, InvalidGroup)
		m.inputs = append(m.inputs, g)
	}
	g, created := m.insertCanon(t.Op, m.inputs[base:], target, t.Disabled)
	m.inputs = m.inputs[:base]
	return g, created
}

// MemoryBytes returns the memo's working-set size, for the paper's report
// that Volcano searched exhaustively within 1 MB of work space: the sizes
// of the structures core allocates for it and the capacities of the
// slices holding them. Model-derived values (logical and physical
// properties, costs, operators) are excluded.
func (m *Memo) MemoryBytes() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	bytes := m.exprs.bytes() + m.ids.bytes() + m.matches.bytes() + m.bindings.bytes() +
		m.children.bytes() + (cap(m.groups)+cap(m.table)+cap(m.leaves))*ptr +
		cap(m.parent)*int(unsafe.Sizeof(GroupID(0))) + cap(m.marks)*int(unsafe.Sizeof(ruleMark{}))
	for _, g := range m.groups {
		bytes += int(unsafe.Sizeof(*g)) +
			(cap(g.exprs)+cap(g.parents)+cap(g.winners)+cap(g.matches))*ptr
		for _, w := range g.winners {
			bytes += int(unsafe.Sizeof(*w))
			if w.plan != nil {
				bytes += int(unsafe.Sizeof(*w.plan)) + cap(w.plan.Inputs)*ptr
			}
		}
	}
	return bytes
}
