package core

// Pattern describes the shape of logical expressions a rule matches.
// A pattern node either names an operator kind (possibly AnyKind) and
// carries sub-patterns for the operator's inputs, or is a leaf, which
// matches an entire equivalence class without binding an expression.
//
// Patterns may span multiple operators: the paper's example is a join
// followed by a projection implemented by a single physical procedure.
type Pattern struct {
	// Kind is the operator kind matched at this node; AnyKind matches
	// every operator. Ignored for leaf nodes.
	Kind OpKind
	// IsLeaf marks a pattern node that matches any input class.
	IsLeaf bool
	// Children are the sub-patterns, one per operator input.
	Children []*Pattern
}

// P constructs an operator pattern node.
func P(kind OpKind, children ...*Pattern) *Pattern {
	return &Pattern{Kind: kind, Children: children}
}

// Leaf constructs a leaf pattern node matching any equivalence class.
func Leaf() *Pattern { return &Pattern{IsLeaf: true} }

// Binding is one way a pattern matched against memo contents. Its shape
// mirrors the pattern: operator pattern nodes bind a concrete expression
// (Expr non-nil); leaf pattern nodes bind only an equivalence class.
type Binding struct {
	// Expr is the matched expression; nil for leaf bindings.
	Expr *Expr
	// Group is the equivalence class of this node's result.
	Group GroupID
	// Children are the bindings for the pattern's children; empty for
	// leaf bindings.
	Children []*Binding

	// up is matcher state: while a sub-pattern binding is under
	// construction, the binding it will become a child of.
	up *Binding
}

// Leaves appends the equivalence classes bound by the pattern's leaf
// nodes, in left-to-right order, and returns the extended slice. For an
// implementation rule, these classes are the inputs of the physical
// algorithm, in order.
func (b *Binding) Leaves(dst []GroupID) []GroupID {
	if b.Expr == nil {
		return append(dst, b.Group)
	}
	for _, c := range b.Children {
		dst = c.Leaves(dst)
	}
	return dst
}

// ExprTree is the substitute produced by a transformation rule, or the
// original query handed to the optimizer: a tree of logical operators
// whose leaves may reference equivalence classes already in the memo.
type ExprTree struct {
	// Op is the operator at this node; nil for a class reference.
	Op LogicalOp
	// Group is the referenced class when Op is nil.
	Group GroupID
	// Children are the operator's inputs.
	Children []*ExprTree
	// Disabled has bit i set when the transformation rule at index i of
	// the model's list must never fire on the expression this node
	// creates. A rule set that derives each expression once tags its
	// substitutes so (Pellenkoft et al.'s RS-B2); the bits take effect
	// only when the node founds a new expression — a duplicate that is
	// found keeps its own.
	Disabled uint64
}

// Node constructs an operator node of an expression tree. It and
// ClassRef allocate, and are the constructors for trees that outlive a
// rule firing: queries handed to the optimizer, lowered statements.
// Transformation rules build their substitutes with the RuleContext
// methods of the same names instead.
func Node(op LogicalOp, children ...*ExprTree) *ExprTree {
	return &ExprTree{Op: op, Children: children}
}

// ClassRef constructs a leaf referencing an existing equivalence class.
func ClassRef(g GroupID) *ExprTree { return &ExprTree{Group: g} }

// substScratch is the memo-owned storage transformation rules build
// their substitutes in. Seven in ten substitutes of a join-reordering
// search are duplicates the memo's lookup discards, so their trees are
// carved from two fixed slabs that exploreGroup rewinds after each
// firing rather than allocated. A firing that overruns a slab gets heap
// memory for the excess.
type substScratch struct {
	nodes [substNodes]ExprTree
	ptrs  [substPtrs]*ExprTree
	used  substMark
}

// substMark is a scratch position: how much of each slab is in use.
type substMark struct{ nodes, ptrs int }

// Slab sizes. Join associativity builds five nodes, four child pointers
// and one result pointer. A firing's substitutes are inserted before the
// next firing starts, so the slabs hold one firing at a time, and they
// live in the Memo struct, where every slot costs each memo its bytes.
const (
	substNodes = 16
	substPtrs  = 16
)

func (s *substScratch) mark() substMark { return s.used }

// release rewinds the scratch to a mark taken earlier; every tree built
// since is dead.
func (s *substScratch) release(mk substMark) { s.used = mk }

func (s *substScratch) node() *ExprTree {
	if s.used.nodes == len(s.nodes) {
		return &ExprTree{}
	}
	t := &s.nodes[s.used.nodes]
	s.used.nodes++
	return t
}

// slice returns a copy of src carved from the pointer slab.
func (s *substScratch) slice(src []*ExprTree) []*ExprTree {
	n := len(src)
	if n == 0 {
		return nil
	}
	if n > len(s.ptrs)-s.used.ptrs {
		return append(make([]*ExprTree, 0, n), src...)
	}
	dst := s.ptrs[s.used.ptrs : s.used.ptrs+n : s.used.ptrs+n]
	s.used.ptrs += n
	copy(dst, src)
	return dst
}

// RuleContext gives rule code controlled access to the memo during
// matching and application: logical properties of bound classes, the
// model, which typically carries the catalog, and the builders for a
// transformation rule's substitutes.
type RuleContext struct {
	// Memo is the memo being optimized.
	Memo *Memo
	// Model is the data model the optimizer was generated for.
	Model Model
}

// LogProps returns the logical properties of an equivalence class.
func (ctx *RuleContext) LogProps(g GroupID) LogicalProps {
	return ctx.Memo.Group(g).LogicalProps()
}

// Node builds an operator node of a substitute. Trees built through
// Node, ClassRef and Substitutes live in the memo's scratch: they are
// valid until the engine has inserted the substitutes of the firing that
// built them, and a rule must not keep one beyond its Apply call's
// return value.
func (ctx *RuleContext) Node(op LogicalOp, children ...*ExprTree) *ExprTree {
	return ctx.NodeWithout(0, op, children...)
}

// NodeWithout is Node for a substitute born with the transformation
// rules in the disabled mask (bit i for the rule at index i) switched
// off; see ExprTree.Disabled.
func (ctx *RuleContext) NodeWithout(disabled uint64, op LogicalOp, children ...*ExprTree) *ExprTree {
	s := &ctx.Memo.subst
	t := s.node()
	t.Op, t.Group, t.Children, t.Disabled = op, InvalidGroup, s.slice(children), disabled
	return t
}

// ClassRef builds a substitute leaf referencing an existing equivalence
// class, typically one bound by the rule's pattern.
func (ctx *RuleContext) ClassRef(g GroupID) *ExprTree {
	t := ctx.Memo.subst.node()
	t.Op, t.Group, t.Children, t.Disabled = nil, g, nil, 0
	return t
}

// Substitutes builds the slice a rule's Apply returns.
func (ctx *RuleContext) Substitutes(trees ...*ExprTree) []*ExprTree {
	return ctx.Memo.subst.slice(trees)
}

// TransformRule is an algebraic equivalence within the logical algebra,
// e.g. commutativity or associativity. Rules are independent of one
// another; the search engine combines them when optimizing a query.
type TransformRule struct {
	// Name identifies the rule in traces.
	Name string
	// Pattern selects the expressions the rule rewrites.
	Pattern *Pattern
	// Condition, if non-nil, is the rule's condition code: it is
	// invoked after a pattern match has succeeded and may veto the
	// match (for example, to check the type of an intermediate result
	// in a many-sorted algebra, or to restrict the search to left-deep
	// plans). Condition and Apply may read only the schema part of
	// logical properties, never estimates: Optimizer.Rederive keeps the
	// explored expression set when estimates change.
	Condition func(ctx *RuleContext, b *Binding) bool
	// Apply produces zero or more substitute expressions equivalent to
	// the binding, built with ctx.Node, ctx.ClassRef and
	// ctx.Substitutes. Substitutes are inserted into the equivalence
	// class of the binding's root. The binding is valid only during the
	// call.
	Apply func(ctx *RuleContext, b *Binding) []*ExprTree
	// Promise orders transformation moves; higher fires first.
	Promise int
}

// InputReq is one alternative combination of physical property vectors
// for an algorithm's inputs. The paper motivates alternatives with
// sort-based intersection: any sort order of the two inputs suffices as
// long as both inputs are sorted the same way, so the optimizer
// implementor lists each acceptable combination and the generated
// optimizer tries them all.
type InputReq struct {
	// Required holds one property vector per algorithm input, in the
	// order of the rule pattern's leaves.
	Required []PhysProps
}

// ImplRule maps logical operators to a physical algorithm. A rule may
// match several logical operators at once (join plus projection into a
// single physical procedure).
type ImplRule struct {
	// Name identifies the rule in traces.
	Name string
	// Pattern selects the logical expressions the algorithm can
	// implement.
	Pattern *Pattern
	// Condition, if non-nil, is invoked after a pattern match.
	Condition func(ctx *RuleContext, b *Binding) bool
	// Applicability determines whether the algorithm can deliver the
	// bound expression with physical properties satisfying required,
	// and if so returns the property vectors the algorithm's inputs
	// must satisfy — one InputReq per acceptable alternative. For
	// example, when a join result must be sorted on the join
	// attribute, hybrid hash join does not qualify, while merge-join
	// qualifies with the requirement that its inputs be sorted.
	Applicability func(ctx *RuleContext, b *Binding, required PhysProps) ([]InputReq, bool)
	// Cost estimates the cost of the algorithm itself, excluding its
	// inputs, for the given binding and chosen input alternative.
	Cost func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) Cost
	// Delivered computes the physical property vector the algorithm's
	// output actually has, given the vectors delivered by the chosen
	// input plans. If nil, the algorithm is assumed to deliver exactly
	// the required vector.
	Delivered func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq, inputs []PhysProps) PhysProps
	// Build constructs the physical operator for the plan node.
	Build func(ctx *RuleContext, b *Binding, required PhysProps, alt InputReq) PhysicalOp
	// Promise orders algorithm moves; higher fires first. Pursuing a
	// cheap, likely-good algorithm early tightens the branch-and-bound
	// limit for everything after it.
	Promise int
}

// Enforcer is a physical operator that corresponds to no logical
// operator: it performs no logical data manipulation but establishes a
// physical property required by subsequent algorithms — sort,
// decompression, exchange (partitioning), or assembly (assembledness).
type Enforcer struct {
	// Name identifies the enforcer in traces.
	Name string
	// Relax inspects a required property vector. If the enforcer can
	// establish some of the required properties, it returns the
	// relaxed vector its input must satisfy and the excluding vector:
	// the properties whose direct producers must not be considered
	// when the enforcer's input is optimized (merge-join must not be
	// considered as input to a sort on the join attribute). ok is
	// false when the enforcer cannot contribute to required.
	Relax func(ctx *RuleContext, lp LogicalProps, required PhysProps) (relaxed, excluded PhysProps, ok bool)
	// Cost estimates the enforcer's own cost.
	Cost func(ctx *RuleContext, lp LogicalProps, required PhysProps) Cost
	// Delivered computes the output vector given the input plan's
	// delivered vector. If nil, the enforcer delivers exactly the
	// required vector.
	Delivered func(ctx *RuleContext, required PhysProps, input PhysProps) PhysProps
	// Build constructs the physical operator for the plan node.
	Build func(ctx *RuleContext, lp LogicalProps, required PhysProps) PhysicalOp
	// Promise orders enforcer moves; higher fires first.
	Promise int
}

// Model is everything the optimizer implementor provides: the paper's
// ten-item list. Items (1)–(4) are the operator sets and rules; items
// (5)–(7) are the cost and property ADTs, realized here as the cost
// type the model declares through CostModel (CostsOf) and the
// LogicalProps and PhysProps interfaces; items (8)–(10) — applicability,
// cost, and property functions — are carried by the rules and by
// DeriveLogicalProps.
type Model interface {
	CostModel

	// Name identifies the data model.
	Name() string
	// DeriveLogicalProps computes the logical properties of an
	// expression from its operator and the properties of its inputs.
	// It is invoked once per equivalence class, before optimization,
	// and encapsulates selectivity estimation. The inputs slice belongs
	// to the caller and is reused; the function must not retain it.
	DeriveLogicalProps(op LogicalOp, inputs []LogicalProps) LogicalProps
	// TransformationRules returns the algebraic equivalences within
	// the logical algebra. At most 64 rules are supported.
	TransformationRules() []*TransformRule
	// ImplementationRules returns the mappings from logical operators
	// to algorithms.
	ImplementationRules() []*ImplRule
	// Enforcers returns the property-enforcing physical operators.
	Enforcers() []*Enforcer
	// AnyProps returns the vacuous physical property vector: the
	// requirement every plan satisfies. It is the relaxation target
	// for enforcers and the requirement used by the glue-mode
	// (Starburst-style) search used in ablation experiments.
	AnyProps() PhysProps
}

// MaxTransformRules is the largest transformation rule set a model may
// declare; the per-expression fired-rule set is a 64-bit mask.
const MaxTransformRules = 64
