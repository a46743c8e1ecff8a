package relopt

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/rel"
)

// Config selects the algorithm set and cost weights of the generated
// optimizer. The zero value plus DefaultParams is the paper's Figure-4
// configuration: operators get, select, and join; algorithms file scan,
// filter, merge-join, and hybrid hash join; sort modeled as an enforcer;
// all bushy plans permitted.
type Config struct {
	// Params are the cost-model weights.
	Params Params
	// EnableNLJoin adds block nested-loops join to the algorithm set.
	EnableNLJoin bool
	// NoCompositeInner restricts join algorithms to left-deep trees
	// (no composite inner inputs), mirroring Starburst's structural
	// search-space parameter. The logical space is unchanged; the
	// restriction is imposed by implementation-rule condition code.
	NoCompositeInner bool
	// Parallel adds the exchange enforcer and partition-parallel
	// algorithm variants.
	Parallel bool
	// Degree is the partition count used by the parallel model.
	Degree int
	// DisableFusedProject removes the project+join fused procedures,
	// for the ablation that measures the value of multi-operator
	// implementation rules.
	DisableFusedProject bool
	// SingleIntersectOrder restricts merge-intersect to the schema
	// order instead of offering every shared sort order as an
	// alternative input property combination — the ablation for the
	// paper's multiple-alternatives feature.
	SingleIntersectOrder bool
	// NoSetReorder removes commutativity and associativity of
	// INTERSECT and UNION, freezing the written order of N-way set
	// operations — the Starburst-style heuristic treatment Section 5
	// criticizes, kept as an ablation baseline.
	NoSetReorder bool
}

// DefaultConfig returns the Figure-4 configuration.
func DefaultConfig() Config {
	return Config{Params: DefaultParams()}
}

// Model is the relational data model description handed to the search
// engine: the operator sets, rules, enforcers, and ADT glue that the
// optimizer generator would translate from a model specification. (The
// repository's generator, internal/gen, emits exactly this wiring from
// testdata/relational.model; this hand-maintained copy is the linked-in
// equivalent.)
type Model struct {
	// Cat is the catalog queries are optimized against.
	Cat *rel.Catalog
	// Cfg is the model configuration.
	Cfg Config

	// paramSel is the selectivity assumed for parameterized predicates;
	// zero means rel's default. OptimizeDynamicCtx sets it on a private
	// copy per bucket (withParamSel), so concurrent sweeps never share an
	// assumption.
	paramSel float64

	trules []*core.TransformRule
	irules []*core.ImplRule
	enfs   []*core.Enforcer
	// sorted[c] is the serial vector "sorted on c" for every catalog
	// column c, built by New and then only read: vdb shares one model
	// across concurrent optimizers.
	sorted []*PhysProps
}

var _ core.Model = (*Model)(nil)

// New builds the model for a catalog and configuration.
func New(cat *rel.Catalog, cfg Config) *Model {
	if cfg.Params.PageBytes == 0 {
		cfg.Params = DefaultParams()
	}
	if cfg.Parallel && cfg.Degree < 2 {
		cfg.Degree = 4
	}
	m := &Model{Cat: cat, Cfg: cfg}

	// In rule-index order: the birth masks of transform.go name the
	// first five by position.
	m.trules = []*core.TransformRule{
		ruleJoinCommute:    joinCommute(),
		ruleJoinRightAssoc: joinRightAssoc(),
		ruleJoinLeftAssoc:  joinLeftAssoc(),
		ruleSelectPushdown: selectPushdown(),
		ruleSelectCommute:  selectCommute(),
	}
	if !cfg.NoSetReorder {
		m.trules = append(m.trules,
			setCommute("intersect-commute", rel.KindIntersect),
			setAssoc("intersect-assoc", rel.KindIntersect),
			setCommute("union-commute", rel.KindUnion),
			setAssoc("union-assoc", rel.KindUnion),
		)
	}

	m.irules = []*core.ImplRule{
		m.fileScanRule(),
		m.filterRule(),
		m.projectRule(),
		m.hashJoinRule(),
		m.mergeJoinRule(),
		m.mergeIntersectRule(),
		m.hashIntersectRule(),
		m.mergeUnionRule(),
		m.hashUnionRule(),
		m.sortGroupByRule(),
		m.hashGroupByRule(),
	}
	if !cfg.DisableFusedProject {
		m.irules = append(m.irules, m.fusedMergeJoinRule(), m.fusedHashJoinRule())
	}
	if cfg.EnableNLJoin {
		m.irules = append(m.irules, m.nlJoinRule())
	}

	var cols []rel.ColID
	for _, name := range cat.Tables() {
		cols = append(cols, cat.Table(name).Columns...)
	}
	props, order := make([]PhysProps, len(cols)), make([]OrderCol, len(cols))
	m.sorted = make([]*PhysProps, len(cols)+1)
	for i, c := range cols {
		order[i] = OrderCol{Col: c}
		props[i] = PhysProps{Sort: order[i : i+1 : i+1]}
		if int(c) < len(m.sorted) {
			m.sorted[c] = &props[i]
		}
	}

	m.enfs = []*core.Enforcer{m.sortEnforcer()}
	if cfg.Parallel {
		m.enfs = append(m.enfs, m.exchangeEnforcer())
	}
	return m
}

// withParamSel returns a copy of the model that assumes selectivity sel
// for parameterized predicates. The copy shares the rule and enforcer
// sets, which read no estimate of their own, so it meets
// core.Optimizer.Rederive's same-rules contract.
func (m *Model) withParamSel(sel float64) *Model {
	c := *m
	c.paramSel = sel
	return &c
}

// Name returns "relational".
func (m *Model) Name() string { return "relational" }

// DeriveLogicalProps derives schema, cardinality, and statistics; it is
// the model's property function for every logical operator and
// encapsulates selectivity estimation.
func (m *Model) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {
	return rel.DeriveProps(m.Cat, m.paramSel, op, inputs)
}

// TransformationRules returns the logical-algebra equivalences.
func (m *Model) TransformationRules() []*core.TransformRule { return m.trules }

// ImplementationRules returns the operator-to-algorithm mappings.
func (m *Model) ImplementationRules() []*core.ImplRule { return m.irules }

// Enforcers returns the property enforcers.
func (m *Model) Enforcers() []*core.Enforcer { return m.enfs }

// AnyProps returns the vacuous physical property vector.
func (m *Model) AnyProps() core.PhysProps { return Any }

// The identity and unreachable costs boxed once: the search asks for
// them on every goal, and boxing a Cost allocates.
var (
	zeroCost     core.Cost = Cost{}
	infiniteCost core.Cost = Infinite
)

// ZeroCost returns the additive identity of the cost ADT.
func (m *Model) ZeroCost() core.Cost { return zeroCost }

// InfiniteCost returns the unreachable cost.
func (m *Model) InfiniteCost() core.Cost { return infiniteCost }

var (
	_ core.Commuter  = (*Model)(nil)
	_ core.Versioned = (*Model)(nil)
)

// CommutativeInputs declares the operators whose inputs the rule set
// proves order-insensitive: JOIN (join-commute), INTERSECT, and UNION
// (set-commute, unless NoSetReorder freezes the written order). Query
// fingerprints treat permuted inputs of these operators as the same
// query, exactly as the memo collapses their derivations.
func (m *Model) CommutativeInputs(op core.LogicalOp) bool {
	switch op.Kind() {
	case rel.KindJoin:
		return true
	case rel.KindIntersect, rel.KindUnion:
		return !m.Cfg.NoSetReorder
	}
	return false
}

// Version returns the model's version token: the catalog version mixed
// with a fingerprint of the configuration (algorithm set and cost
// weights). Any change that could alter a plan or its cost — schema or
// statistics registration, a catalog BumpVersion, different Config —
// yields a different token, which orphans stale plan-cache entries.
func (m *Model) Version() uint64 {
	h := mix64(0x9E3779B185EBCA87, m.Cat.Version())
	p := m.Cfg.Params
	for _, f := range []float64{
		float64(p.PageBytes), p.CPUTuple, p.CPUPred, p.CPUCompare,
		p.CPUHash, p.SpillIO, p.MemoryPages,
	} {
		h = mix64(h, math.Float64bits(f))
	}
	flags := uint64(0)
	for i, b := range []bool{
		m.Cfg.EnableNLJoin, m.Cfg.NoCompositeInner, m.Cfg.Parallel,
		m.Cfg.DisableFusedProject, m.Cfg.SingleIntersectOrder, m.Cfg.NoSetReorder,
	} {
		if b {
			flags |= 1 << uint(i)
		}
	}
	h = mix64(h, flags)
	return mix64(h, uint64(m.Cfg.Degree))
}

// mix64 folds v into h with a rotate-multiply step strong enough for a
// version token (not a general-purpose hash).
func mix64(h, v uint64) uint64 {
	h ^= v
	h = bits.RotateLeft64(h, 31)
	return h * 0xff51afd7ed558ccd
}
