package relopt

import (
	"math"
	"math/bits"
	"sync"

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

	// rules are the rule and enforcer tables of the configuration's
	// structure, shared with every model of that structure.
	rules *ruleTables
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
	m := &Model{Cat: cat, Cfg: cfg, rules: rulesOf(cfg)}

	n := 0
	for _, name := range cat.Tables() {
		n += len(cat.Table(name).Columns)
	}
	props, order := make([]PhysProps, n), make([]OrderCol, n)
	m.sorted = make([]*PhysProps, n+1)
	i := 0
	for _, name := range cat.Tables() {
		for _, c := range cat.Table(name).Columns {
			order[i] = OrderCol{Col: c}
			props[i] = PhysProps{Sort: order[i : i+1 : i+1]}
			if int(c) < len(m.sorted) {
				m.sorted[c] = &props[i]
			}
			i++
		}
	}
	return m
}

// ruleTables are the transformation rules, implementation rules and
// enforcers of one structural configuration: a Config without its
// Params. Their callbacks read the cost weights, the catalog's sorted
// vectors and the parameter selectivity through the model they run for
// (modelOf), so every model of the structure shares one set, built by
// the first New that needs it. A set holds nothing of any model and is
// never written after it is built, so sharing it couples no two models.
type ruleTables struct {
	trules []*core.TransformRule
	irules []*core.ImplRule
	enfs   []*core.Enforcer
}

var (
	rulesMu sync.Mutex
	rulesBy = map[Config]*ruleTables{}
)

// rulesOf returns the shared rule tables of cfg's structure.
func rulesOf(cfg Config) *ruleTables {
	cfg.Params = Params{}
	rulesMu.Lock()
	defer rulesMu.Unlock()
	r := rulesBy[cfg]
	if r == nil {
		r = newRuleTables(cfg)
		rulesBy[cfg] = r
	}
	return r
}

// newRuleTables builds the rule tables of a structural configuration.
func newRuleTables(cfg Config) *ruleTables {
	r := &ruleTables{}
	// In rule-index order: the birth masks of transform.go name the
	// first five by position.
	r.trules = []*core.TransformRule{
		ruleJoinCommute:    joinCommute(),
		ruleJoinRightAssoc: joinRightAssoc(),
		ruleJoinLeftAssoc:  joinLeftAssoc(),
		ruleSelectPushdown: selectPushdown(),
		ruleSelectCommute:  selectCommute(),
	}
	if !cfg.NoSetReorder {
		r.trules = append(r.trules,
			setCommute("intersect-commute", rel.KindIntersect),
			setAssoc("intersect-assoc", rel.KindIntersect),
			setCommute("union-commute", rel.KindUnion),
			setAssoc("union-assoc", rel.KindUnion),
		)
	}

	r.irules = []*core.ImplRule{
		fileScanRule(),
		filterRule(),
		projectRule(),
		hashJoinRule(),
		mergeJoinRule(),
		mergeIntersectRule(),
		hashIntersectRule(),
		mergeUnionRule(),
		hashUnionRule(),
		sortGroupByRule(),
		hashGroupByRule(),
	}
	if !cfg.DisableFusedProject {
		r.irules = append(r.irules, fusedMergeJoinRule(), fusedHashJoinRule())
	}
	if cfg.EnableNLJoin {
		r.irules = append(r.irules, nlJoinRule())
	}

	r.enfs = []*core.Enforcer{sortEnforcer()}
	if cfg.Parallel {
		r.enfs = append(r.enfs, exchangeEnforcer())
	}
	return r
}

// relational is implemented by *Model and by every type that embeds
// one, such as a wrapper declaring other transformation rules: the
// relational model behind a rule context.
type relational interface{ relational() *Model }

func (m *Model) relational() *Model { return m }

// modelOf returns the relational model a rule callback runs for.
func modelOf(ctx *core.RuleContext) *Model {
	if m, ok := ctx.Model.(*Model); ok {
		return m
	}
	return ctx.Model.(relational).relational()
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
func (m *Model) TransformationRules() []*core.TransformRule { return m.rules.trules }

// ImplementationRules returns the operator-to-algorithm mappings.
func (m *Model) ImplementationRules() []*core.ImplRule { return m.rules.irules }

// Enforcers returns the property enforcers.
func (m *Model) Enforcers() []*core.Enforcer { return m.rules.enfs }

// AnyProps returns the vacuous physical property vector.
func (m *Model) AnyProps() core.PhysProps { return Any }

// costs declares Cost as the model's cost ADT, with its zero and
// Infinite.
var costs = core.CostsOf(Cost{}, Infinite)

// Costs returns the cost declaration the search engine is instantiated
// for.
func (m *Model) Costs() core.CostSpace { return costs }

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
