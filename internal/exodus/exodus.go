// Package exodus re-implements the search strategy of the EXODUS
// optimizer generator, as described in Graefe & DeWitt (SIGMOD 1987) and
// in Section 4 of the Volcano paper, to serve as the baseline of the
// Figure-4 experiment. Its deliberate characteristics, quoted from the
// paper, are:
//
//   - a single node type in the hash table ("MESH") combines a logical
//     operator and a physical algorithm choice; equivalent plans using
//     different algorithms require duplicated nodes;
//   - forward chaining: transformations are applied wherever possible,
//     ordered by expected cost improvement — a rule factor times the
//     current cost of the matched expression — which prefers nodes at
//     the top of the expression, so that when lower expressions are
//     finally transformed, "all consumer nodes above (of which there
//     were many at this time) had to be reanalyzed, creating an
//     extremely large number of MESH nodes";
//   - a transformation is always followed immediately by algorithm
//     selection and cost analysis;
//   - physical properties are handled "rather haphazardly": if the
//     cheapest algorithm happens to deliver a useful sort order it is
//     recorded and used, but required properties never drive the
//     search, and the cost of sorting is folded into the cost function
//     of merge-join.
//
// The cost model and the transformation rules are identical to the
// Volcano configuration in internal/relopt, so differences in
// optimization time, memory, and plan quality are attributable to the
// search strategies alone.
package exodus

import (
	"container/heap"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// ErrBudget is returned when MESH exceeds its node budget — the paper
// reports that the EXODUS optimizer "aborted due to lack of memory" on
// some larger queries.
var ErrBudget = errors.New("exodus: MESH node budget exhausted")

// ErrTimeout is returned when optimization exceeds its time budget —
// the paper aborted EXODUS runs that "ran much longer" than Volcano.
var ErrTimeout = errors.New("exodus: optimization time budget exhausted")

// Config tunes the baseline optimizer.
type Config struct {
	// Params are the cost weights; they must match the Volcano run for
	// a fair comparison.
	Params relopt.Params
	// MaxNodes bounds the number of MESH node versions; 0 means 1<<21.
	MaxNodes int
	// Timeout bounds optimization wall time; 0 means none.
	Timeout time.Duration
}

// eqClass is a set of equivalent logical expressions together with the
// cheapest analyzed version found so far. Unlike a Volcano group it has
// no winner table: one best plan, no per-property alternatives.
type eqClass struct {
	id      int
	props   *rel.Props
	members []*exprNode
	parents []*exprNode
	best    *Node
	repr    *eqClass // union-find parent; self when representative
}

func (c *eqClass) find() *eqClass {
	for c.repr != c {
		c.repr = c.repr.repr
		c = c.repr
	}
	return c
}

// exprNode is one logical expression: an operator over input classes.
type exprNode struct {
	id      int
	op      core.LogicalOp
	ins     []*eqClass
	cls     *eqClass
	applied [numRules]bool
	cur     *Node
	// alts are the current per-algorithm versions (duplicated MESH
	// nodes for equivalent plans using different algorithms).
	alts []*Node
	// dead marks an expression that became a duplicate of another
	// after a class merge; it stays in MESH (the paper calls the
	// structure "extremely cumbersome") but takes no further part in
	// matching.
	dead bool
}

func (e *exprNode) input(i int) *eqClass { return e.ins[i].find() }

// Node is one analyzed MESH version of an expression: the algorithm
// chosen for it, its total cost against the input versions it was
// analyzed with, and the incidental sort order of its output.
type Node struct {
	// ID is the node's creation index.
	ID int
	// Expr is the logical expression this version analyzes.
	Expr *exprNode
	// Inputs are the input versions used by the analysis.
	Inputs []*Node
	// Alg names the chosen algorithm.
	Alg string
	// Cost is the total subtree cost, sorts folded in.
	Cost relopt.Cost
	// SortedOn is the incidental output order (0 if none).
	SortedOn rel.ColID
	// SortedOn2 is the second incidental order of a merge-join output:
	// both equated columns carry identical values, so the stream is
	// ordered on either.
	SortedOn2 rel.ColID
}

// sortedOnCol reports whether the node's output is incidentally ordered
// on the column.
func (n *Node) sortedOnCol(c rel.ColID) bool {
	return c != 0 && (n.SortedOn == c || n.SortedOn2 == c)
}

func (n *Node) props() *rel.Props { return n.Expr.cls.find().props }

// pending is one queued transformation application.
type pending struct {
	rule    int
	expr    *exprNode
	promise float64
}

// moveHeap orders pending transformations by descending promise.
type moveHeap []pending

func (h moveHeap) Len() int           { return len(h) }
func (h moveHeap) Less(i, j int) bool { return h[i].promise > h[j].promise }
func (h moveHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *moveHeap) Push(x any)        { *h = append(*h, x.(pending)) }
func (h *moveHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Stats reports the baseline's search effort.
type Stats struct {
	// Nodes is the number of MESH node versions created.
	Nodes int
	// Exprs is the number of distinct logical expressions.
	Exprs int
	// EqClasses is the number of equivalence classes created.
	EqClasses int
	// Transforms is the number of transformation applications popped.
	Transforms int
	// Reanalyses is the number of consumer reanalyses performed after
	// a class best improved or a class merged.
	Reanalyses int
	// MemoryBytes estimates MESH working-set size.
	MemoryBytes int
}

// Optimizer is the EXODUS-style baseline.
type Optimizer struct {
	cat   *rel.Catalog
	cfg   Config
	stats Stats

	exprByKey map[uint64][]*exprNode
	open      moveHeap
	seen      map[[2]int]bool // (rule, exprID) queued
	done      map[[3]int]bool // (rule, exprID, memberID) applied
	exprSeq   int
	nodeSeq   int
	eqSeq     int
	deadline  time.Time
	err       error
}

// New creates a baseline optimizer over the catalog.
func New(cat *rel.Catalog, cfg Config) *Optimizer {
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 1 << 21
	}
	if cfg.Params.PageBytes == 0 {
		cfg.Params = relopt.DefaultParams()
	}
	return &Optimizer{
		cat:       cat,
		cfg:       cfg,
		exprByKey: make(map[uint64][]*exprNode),
		seen:      make(map[[2]int]bool),
		done:      make(map[[3]int]bool),
	}
}

// Stats returns the accumulated search-effort counters.
func (o *Optimizer) Stats() Stats {
	const nodeBytes, exprBytes, classBytes = 88, 72, 96
	o.stats.MemoryBytes = o.stats.Nodes*nodeBytes +
		o.stats.Exprs*exprBytes + o.stats.EqClasses*classBytes
	return o.stats
}

// Optimize loads the query, runs forward chaining to exhaustion, and
// returns the best version of the root expression. requiredSort, when
// nonzero, asks for output sorted on that column; a final sort is glued
// on afterwards if the incidentally delivered order does not match —
// EXODUS had no way to let a required property drive the search.
func (o *Optimizer) Optimize(query *core.ExprTree, requiredSort rel.ColID) (*Node, relopt.Cost, error) {
	if o.cfg.Timeout > 0 {
		o.deadline = time.Now().Add(o.cfg.Timeout)
	}
	rootExpr := o.insert(query)
	if o.err != nil {
		return nil, relopt.Cost{}, o.err
	}
	rootClass := rootExpr.cls.find()
	for o.open.Len() > 0 {
		if o.err != nil {
			return nil, relopt.Cost{}, o.err
		}
		mv := heap.Pop(&o.open).(pending)
		o.applyTransform(mv)
	}
	if o.err != nil {
		return nil, relopt.Cost{}, o.err
	}
	// EXODUS folded enforcer costs into algorithm cost functions; the
	// equivalent at the query root is to charge each candidate version
	// the final sort unless its incidental order already matches, and
	// pick the cheapest. Deeper in the plan no such accounting exists —
	// which is what costs the baseline on complex queries.
	cls := rootClass.find()
	best := cls.best
	cost := o.adjusted(best, requiredSort)
	for _, m := range cls.members {
		if m.dead {
			continue
		}
		for _, v := range m.alts {
			if c := o.adjusted(v, requiredSort); c.Less(cost) {
				best, cost = v, c
			}
		}
	}
	return best, cost, nil
}

// adjusted returns the node's cost plus a final sort when the required
// order is not incidentally delivered.
func (o *Optimizer) adjusted(n *Node, requiredSort rel.ColID) relopt.Cost {
	cost := n.Cost
	if requiredSort != 0 && !n.sortedOnCol(requiredSort) {
		cost = cost.Add(o.sortCost(n.props()))
	}
	return cost
}

// insert builds expressions for the query tree bottom-up.
func (o *Optimizer) insert(t *core.ExprTree) *exprNode {
	inputs := make([]*eqClass, len(t.Children))
	for i, c := range t.Children {
		child := o.insert(c)
		if o.err != nil {
			return child
		}
		inputs[i] = child.cls.find()
	}
	return o.exprFor(t.Op, inputs, nil)
}

// identity hashes a logical expression: kind, argument hash, and
// canonical input class IDs.
func identity(op core.LogicalOp, ins []*eqClass) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(uint32(op.Kind())))
	mix(op.ArgsHash())
	for _, c := range ins {
		mix(uint64(int64(c.find().id)))
	}
	return h
}

func sameExpr(e *exprNode, op core.LogicalOp, ins []*eqClass) bool {
	if e.op.Kind() != op.Kind() || len(e.ins) != len(ins) {
		return false
	}
	for i, c := range e.ins {
		if c.find() != ins[i].find() {
			return false
		}
	}
	return e.op.ArgsEqual(op)
}

// exprFor finds or creates the expression (op, ins). When target is
// non-nil the expression is asserted equivalent to that class: a found
// expression in another class triggers a class merge; a new expression
// joins target. New expressions are immediately analyzed — in EXODUS a
// transformation is always followed by algorithm selection and cost
// analysis — and their transformations enqueued.
func (o *Optimizer) exprFor(op core.LogicalOp, ins []*eqClass, target *eqClass) *exprNode {
	if o.err != nil {
		return nil
	}
	if !o.deadline.IsZero() && time.Now().After(o.deadline) {
		o.err = ErrTimeout
		return nil
	}
	for i, c := range ins {
		ins[i] = c.find()
	}
	h := identity(op, ins)
	for _, e := range o.exprByKey[h] {
		if !e.dead && sameExpr(e, op, ins) {
			if target != nil && e.cls.find() != target.find() {
				o.mergeClasses(e.cls.find(), target.find())
			}
			return e
		}
	}
	e := &exprNode{id: o.exprSeq, op: op, ins: ins}
	o.exprSeq++
	o.stats.Exprs++
	o.exprByKey[h] = append(o.exprByKey[h], e)

	if target == nil {
		inProps := make([]core.LogicalProps, len(ins))
		for i, c := range ins {
			inProps[i] = c.props
		}
		cls := &eqClass{id: o.eqSeq, props: rel.DeriveProps(o.cat, 0, op, inProps)}
		cls.repr = cls
		o.eqSeq++
		o.stats.EqClasses++
		target = cls
	} else {
		target = target.find()
	}
	e.cls = target
	target.members = append(target.members, e)
	for _, c := range ins {
		c.parents = append(c.parents, e)
	}

	o.reanalyze(e)
	o.enqueueMatches(e)
	// Every consumer of the class can now bind through the new member;
	// its rules must be rematched.
	for _, p := range append([]*exprNode(nil), target.parents...) {
		o.requeueMatches(p)
	}
	return e
}

// reanalyze computes a fresh MESH version of the expression against the
// current best versions of its input classes, and promotes it if it
// improves the class best. Each call creates a node, as in EXODUS.
func (o *Optimizer) reanalyze(e *exprNode) {
	if o.err != nil || e.dead {
		return
	}
	inputs := make([]*Node, len(e.ins))
	for i := range e.ins {
		inputs[i] = e.input(i).best
		if inputs[i] == nil {
			// The input class is mid-construction (only possible
			// during a merge cascade); it will reanalyze us again.
			return
		}
	}
	versions := o.analyzeVersions(e, inputs)
	if len(versions) == 0 {
		return
	}
	best := versions[0]
	for _, v := range versions[1:] {
		if v.Cost.Less(best.Cost) {
			best = v
		}
	}
	e.alts = versions
	if prev := e.cur; prev == nil || best.Cost.Less(prev.Cost) {
		e.cur = best
	}
	cls := e.cls.find()
	if cls.best == nil || best.Cost.Less(cls.best.Cost) {
		cls.best = best
		o.propagate(cls)
	}
}

// propagate reanalyzes every consumer of a class whose best version
// changed: the reanalysis cascade that dominated EXODUS's running time
// on larger queries.
func (o *Optimizer) propagate(cls *eqClass) {
	parents := append([]*exprNode(nil), cls.parents...)
	for _, p := range parents {
		if o.err != nil {
			return
		}
		if p.dead {
			continue
		}
		o.stats.Reanalyses++
		o.reanalyze(p)
	}
}

// mergeClasses unifies two classes proven equivalent by a
// transformation, keeps the cheaper best, reanalyzes the union's
// consumers, and re-enqueues their transformations so multi-level rules
// can rebind through the enlarged class. Consumers of the merged-away
// class change logical identity; they are re-hashed, and consumers that
// thereby become duplicates of existing expressions are retired and
// their classes merged in turn.
func (o *Optimizer) mergeClasses(a, b *eqClass) {
	a, b = a.find(), b.find()
	if a == b {
		return
	}
	if b.id < a.id {
		a, b = b, a
	}
	b.repr = a
	for _, m := range b.members {
		m.cls = a
	}
	a.members = append(a.members, b.members...)
	b.members = nil
	moved := b.parents
	a.parents = append(a.parents, b.parents...)
	b.parents = nil
	if a.best == nil || (b.best != nil && b.best.Cost.Less(a.best.Cost)) {
		a.best = b.best
	}
	b.best = nil

	// Re-hash the consumers whose identity changed and collapse new
	// duplicates.
	for _, p := range moved {
		if p.dead {
			continue
		}
		h := identity(p.op, p.ins)
		dup := false
		for _, e2 := range o.exprByKey[h] {
			if e2 != p && !e2.dead && sameExpr(e2, p.op, p.ins) {
				p.dead = true
				o.mergeClasses(p.cls.find(), e2.cls.find())
				dup = true
				break
			}
		}
		if !dup {
			o.exprByKey[h] = append(o.exprByKey[h], p)
		}
		if o.err != nil {
			return
		}
	}

	// Consumers of either side must be reanalyzed and their rules
	// rematched against the union.
	for _, p := range append([]*exprNode(nil), a.find().parents...) {
		if o.err != nil {
			return
		}
		if p.dead {
			continue
		}
		o.stats.Reanalyses++
		o.reanalyze(p)
		o.requeueMatches(p)
	}
}
