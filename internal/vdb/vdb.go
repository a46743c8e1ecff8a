// Package vdb is the batteries-included façade over the repository's
// pieces: a catalog, a Volcano-generated optimizer, and the iterator
// execution engine behind a single query interface. It is what a
// downstream user adopts when they want "the database", not the
// optimizer-construction toolkit.
//
//	db := vdb.Open(catalog, data, nil)
//	res, err := db.Query("SELECT e.id FROM emp e ... ORDER BY ...")
//	res, err := db.QueryParams("SELECT ... WHERE v < $1", 42)
package vdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

// Options tune a database instance.
type Options struct {
	// Config is the optimizer model configuration; the zero value is
	// completed with defaults.
	Config relopt.Config
	// Search tunes the search engine (ablation toggles, budgets,
	// tracing). Search.Budget bounds every optimization the database
	// runs; a budget-stopped optimization degrades to the best plan
	// found (see Result.Degraded) instead of failing the query.
	Search core.Options
	// Guided seeds branch-and-bound with the model's greedy
	// join-ordering planner; it is a convenience for callers that do
	// not hold the catalog yet (OpenDir), equivalent to setting
	// Search.Guidance.SeedPlanner. An explicit SeedPlanner wins.
	Guided bool
	// DynamicBuckets, when non-empty, makes Prepare of parameterized
	// queries produce dynamic plans over these selectivity
	// assumptions; nil uses the built-in buckets.
	DynamicBuckets []float64
	// CacheBytes enables the cross-query plan cache, bounded to this
	// many bytes; 0 disables caching. Cached plans are keyed by
	// canonical query fingerprint (commuted-join spellings of the same
	// query share an entry), verified byte-for-byte on hit, and
	// invalidated by catalog version bumps; concurrent identical
	// queries coalesce into one optimization. Parameterized statements
	// are cached by shape. Budget-degraded plans are never cached.
	CacheBytes int64
	// Exec tunes the execution engine: batch size, exchange producer
	// parallelism, and the NoFusion row-kernel baseline. The zero value
	// is what ships: columnar kernels wherever the plan allows.
	Exec exec.Options
}

// DB is one database instance: schema, statistics, data, and the
// optimizer generated for them.
type DB struct {
	cat  *rel.Catalog
	data *exec.DB
	opts Options
	// model is the database's one optimizer model, built at Open: every
	// optimization, the seed planner, batches and fingerprinting use it.
	// It is read-only, so concurrent requests share it.
	model *relopt.Model
	// cache is the cross-query plan cache; nil when disabled.
	cache *plancache.Cache
}

// Open assembles a database from a catalog and table contents (rows
// aligned with each table's column order, as produced by datagen.Rows).
func Open(cat *rel.Catalog, data map[string][][]int64, opts *Options) *DB {
	db := &DB{cat: cat, data: exec.FromData(cat, data)}
	if opts != nil {
		db.opts = *opts
	}
	db.model = relopt.New(cat, db.opts.Config)
	if db.opts.Guided && db.opts.Search.Guidance.SeedPlanner == nil {
		db.opts.Search.Guidance.SeedPlanner = db.model.SeedPlanner()
	}
	if db.opts.CacheBytes > 0 {
		db.cache = plancache.New(plancache.Options{MaxBytes: db.opts.CacheBytes})
	}
	return db
}

// Catalog exposes the schema and statistics.
func (db *DB) Catalog() *rel.Catalog { return db.cat }

// PlanCache exposes the plan cache for observability (counters,
// explicit invalidation); nil when Options.CacheBytes is 0.
func (db *DB) PlanCache() *plancache.Cache { return db.cache }

// ExecCounters exposes the execution engine's cumulative counters for
// observability.
func (db *DB) ExecCounters() exec.Counters { return db.data.Counters() }

// Result is the uniform outcome envelope of every entry point:
// QueryCtx fills Rows, ExplainCtx fills PlanText, PrepareCtx fills the
// plan-shaped fields (exposed via Stmt.Result), and QueryBatchCtx
// returns one Result per statement. A network tier can serialize a
// Result directly; nothing about how a statement was served (cache
// hit, coalesced optimization, budget degradation, timing) requires a
// second lookup.
type Result struct {
	// Rows are the output tuples; nil when the statement was not
	// executed (Prepare, Explain).
	Rows []exec.Row
	// Columns names the output columns; aggregate outputs are "agg".
	Columns []string
	// Plan is the chosen physical plan (a choose-plan root for dynamic
	// statements).
	Plan *core.Plan
	// PlanText is the rendered plan, with leading "-- degraded:" /
	// "-- cached" notes; filled by ExplainCtx only.
	PlanText string
	// Cost is the plan's estimated cost (Plan.Cost, hoisted so
	// envelope consumers need not walk the plan).
	Cost core.Cost
	// Stats are the search counters of the optimization that produced
	// the plan — the original run's counters when the plan was served
	// from the cache (Cached) or coalesced (Coalesced). Batch results
	// share the batch's counters.
	Stats core.Stats
	// Degraded reports that a budget stopped the optimizer before it
	// could prove the plan optimal: the statement still ran, on the
	// best complete plan found. StopReason names the exhausted bound.
	Degraded bool
	// StopReason is the typed budget error (matching core.ErrBudget)
	// behind Degraded; nil for fully optimized statements.
	StopReason error
	// Cached reports that the plan was served from the plan cache.
	// Always false for batch results: sharing decisions are
	// batch-relative, so QueryBatchCtx bypasses the cache entirely.
	Cached bool
	// Coalesced reports that the plan was shared from an identical
	// in-flight optimization instead of running a duplicate search.
	Coalesced bool
	// Dynamic reports a choose-plan over selectivity regions
	// (parameterized statements).
	Dynamic bool
	// NParams is the statement's parameter count.
	NParams int
	// OptimizeTime is the wall time this call spent obtaining the plan
	// (near zero for cache hits); ExecTime is the wall time executing
	// it. Both are zero for phases the entry point did not run.
	OptimizeTime time.Duration
	// ExecTime is the wall time spent executing the plan.
	ExecTime time.Duration
}

// resultFrom assembles the envelope for a plan served by serve().
func resultFrom(entry *plancache.Entry, outcome plancache.Outcome, optTime time.Duration) *Result {
	return &Result{
		Plan:         entry.Plan,
		Cost:         entry.Plan.Cost,
		Stats:        entry.Stats,
		Degraded:     entry.Degraded != nil,
		StopReason:   entry.Degraded,
		Cached:       outcome == plancache.OutcomeHit,
		Coalesced:    outcome == plancache.OutcomeCoalesced,
		Dynamic:      entry.Dynamic,
		NParams:      entry.NParams,
		OptimizeTime: optTime,
	}
}

// budgetKey carries a per-request optimization budget in a context.
type budgetKey struct{}

// WithBudget returns a context carrying a per-request optimization
// budget that overrides Options.Search.Budget for every statement
// optimized under it. This is how a serving tier maps request
// deadlines and overload-degradation ladders onto the optimizer
// without holding one DB per budget level: cache hits are unaffected
// (the stored plan is already proven optimal), budget-degraded plans
// are never inserted into the cache, and a coalesced caller shares the
// in-flight optimization's budget, not its own. Dynamic-plan
// optimization of parameterized statements is not budgeted, but the
// request context's cancellation and deadline do stop it.
func WithBudget(ctx context.Context, b core.Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// budgetFrom extracts a WithBudget override, if any.
func budgetFrom(ctx context.Context) (core.Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(core.Budget)
	return b, ok
}

// policyKey carries a per-request search-policy override in a context.
type policyKey struct{}

// WithSearchPolicy returns a context carrying a per-request search
// policy that overrides Options.Search.Search.Policy for every
// statement optimized under it. A serving tier combines it with
// WithBudget to shift admitted-under-pressure requests onto the
// budgeted stochastic policies (core.PolicyMCTS, core.PolicyWidening)
// instead of merely truncating the exhaustive search. Statements
// optimized under a policy override bypass the plan cache entirely:
// a stochastic policy's plan is best-effort, not proven optimal, and
// must not be served later to full-budget requests.
func WithSearchPolicy(ctx context.Context, p core.SearchPolicy) context.Context {
	return context.WithValue(ctx, policyKey{}, p)
}

// searchPolicyFrom extracts a WithSearchPolicy override, if any.
func searchPolicyFrom(ctx context.Context) (core.SearchPolicy, bool) {
	p, ok := ctx.Value(policyKey{}).(core.SearchPolicy)
	return p, ok
}

// optimize runs the search engine over a parsed statement under the
// database's configured search options and the caller's context. A
// budget-stopped search with a usable anytime plan is reported as a
// degraded success; only a stop with no plan at all (or a non-budget
// error) fails. The returned stats include StopReason for degraded runs.
func (db *DB) optimize(ctx context.Context, tree *core.ExprTree, required core.PhysProps) (*core.Plan, core.Stats, error, error) {
	opts := db.opts.Search
	if b, ok := budgetFrom(ctx); ok {
		opts.Budget = b
	}
	if p, ok := searchPolicyFrom(ctx); ok {
		opts.Search.Policy = p
	}
	if err := opts.Validate(); err != nil {
		return nil, core.Stats{}, nil, err
	}
	opt := core.NewOptimizer(db.model, &opts)
	root := opt.InsertQuery(tree)
	plan, err := opt.OptimizeCtx(ctx, root, required)
	stats := *opt.Stats()
	if err != nil {
		if plan != nil && errors.Is(err, core.ErrBudget) {
			return plan, stats, err, nil
		}
		return nil, stats, nil, err
	}
	if plan == nil {
		return nil, stats, nil, fmt.Errorf("vdb: no plan satisfies the query")
	}
	return plan, stats, nil, nil
}

// serve optimizes a parsed statement through the plan cache when one is
// configured: a verified cached entry if present, a shared in-flight
// result if an identical statement is being optimized concurrently, or
// a fresh optimization otherwise. Fresh results are inserted unless the
// search was budget-degraded. Without a cache it simply optimizes.
func (db *DB) serve(ctx context.Context, st *sqlish.Statement, nparams int) (*plancache.Entry, plancache.Outcome, error) {
	compute := func() (*plancache.Entry, error) {
		if nparams == 1 {
			res, err := relopt.OptimizeDynamicCtx(ctx, db.model, st.Tree, st.Required, db.opts.DynamicBuckets)
			if err != nil {
				return nil, err
			}
			return &plancache.Entry{Plan: res.Plan, Cost: res.Plan.Cost, Dynamic: res.Alternatives > 1, NParams: 1}, nil
		}
		plan, stats, degraded, err := db.optimize(ctx, st.Tree, st.Required)
		if err != nil {
			return nil, err
		}
		return &plancache.Entry{Plan: plan, Cost: plan.Cost, Stats: stats, Degraded: degraded}, nil
	}
	if _, overridden := searchPolicyFrom(ctx); db.cache == nil || overridden {
		// A per-request policy override bypasses the cache both ways: a
		// stochastic plan must not be cached for full-budget callers,
		// and a cached exhaustive entry would silently ignore the
		// caller's requested policy.
		e, err := compute()
		return e, plancache.OutcomeMiss, err
	}
	fp, canon := core.FingerprintQuery(db.model, st.Tree, st.Required)
	return db.cache.Do(fp, canon, compute)
}

// Stmt is a prepared statement: parsed, optimized (statically or
// dynamically), and executable many times with different parameters.
// Its prepare-time envelope — plan, cost, cache/degradation markers,
// optimization timing — is the same Result every other entry point
// returns (see Result).
type Stmt struct {
	db  *DB
	res *Result
}

// Prepare parses and optimizes a statement; see PrepareCtx.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.PrepareCtx(context.Background(), sql)
}

// PrepareCtx parses and optimizes a statement. Queries with `$n`
// parameters get a dynamic plan (a choose-plan over selectivity
// regions); fully specified queries get a single optimal plan. The
// context cancels or deadline-bounds the optimization: a budget-stopped
// search yields a statement carrying the best plan found (see
// Result.StopReason) rather than an error.
func (db *DB) PrepareCtx(ctx context.Context, sql string) (*Stmt, error) {
	st, err := sqlish.Parse(db.cat, sql)
	if err != nil {
		return nil, err
	}
	nparams := countParams(st.Tree)
	if nparams > 1 {
		return nil, fmt.Errorf("vdb: at most one parameter is supported, query has %d", nparams)
	}
	start := time.Now()
	entry, outcome, err := db.serve(ctx, st, nparams)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, res: resultFrom(entry, outcome, time.Since(start))}, nil
}

// Result exposes the prepare-time envelope: plan, cost,
// cache/degradation markers, and optimization timing, with no rows.
func (s *Stmt) Result() *Result { return s.res }

// Cached reports whether the statement's plan was served from the plan
// cache rather than optimized by this Prepare call.
func (s *Stmt) Cached() bool { return s.res.Cached }

// Exec runs the prepared statement with the given parameter values; see
// ExecCtx.
func (s *Stmt) Exec(params ...int64) (*Result, error) {
	return s.ExecCtx(context.Background(), params...)
}

// ExecCtx runs the prepared statement with the given parameter values
// under a context: canceling it tears down the executing iterator tree
// (including any exchange workers) and fails the call. The returned
// Result carries the statement's prepare-time envelope (plan, cost,
// cache/degradation markers) plus this execution's rows and timing.
func (s *Stmt) ExecCtx(ctx context.Context, params ...int64) (*Result, error) {
	if len(params) != s.res.NParams {
		return nil, fmt.Errorf("vdb: statement needs %d parameters, got %d", s.res.NParams, len(params))
	}
	start := time.Now()
	rows, schema, err := exec.RunOpts(ctx, s.db.data, s.res.Plan, params, s.db.opts.Exec)
	if err != nil {
		return nil, err
	}
	res := *s.res
	res.Rows = rows
	res.Columns = columnNames(s.db.cat, schema)
	res.ExecTime = time.Since(start)
	return &res, nil
}

// Plan exposes the prepared plan (a ChoosePlan root for dynamic
// statements).
func (s *Stmt) Plan() *core.Plan { return s.res.Plan }

// Dynamic reports whether the statement carries runtime alternatives.
func (s *Stmt) Dynamic() bool { return s.res.Dynamic }

// Query parses, optimizes, and executes a fully specified statement;
// see QueryCtx.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryCtx(context.Background(), sql)
}

// QueryCtx parses, optimizes, and executes a fully specified statement.
// The context bounds both phases: during optimization, canceling it (or
// exceeding the configured Search.Budget) degrades the query to the best
// complete plan found — the query still runs, and Result.Degraded
// explains what stopped the search. During execution, canceling the
// context tears down the iterator tree (including any exchange workers)
// and fails the query.
func (db *DB) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	st, err := sqlish.Parse(db.cat, sql)
	if err != nil {
		return nil, err
	}
	if countParams(st.Tree) != 0 {
		return nil, fmt.Errorf("vdb: parameterized query requires Prepare/Exec or QueryParams")
	}
	start := time.Now()
	entry, outcome, err := db.serve(ctx, st, 0)
	if err != nil {
		return nil, err
	}
	res := resultFrom(entry, outcome, time.Since(start))
	start = time.Now()
	rows, schema, err := exec.RunOpts(ctx, db.data, entry.Plan, nil, db.opts.Exec)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Columns = columnNames(db.cat, schema)
	res.ExecTime = time.Since(start)
	return res, nil
}

// QueryParams prepares and executes a parameterized statement in one
// step; see QueryParamsCtx.
func (db *DB) QueryParams(sql string, params ...int64) (*Result, error) {
	return db.QueryParamsCtx(context.Background(), sql, params...)
}

// QueryParamsCtx prepares and executes a parameterized statement in
// one step under a context; the Result envelope covers both phases.
func (db *DB) QueryParamsCtx(ctx context.Context, sql string, params ...int64) (*Result, error) {
	stmt, err := db.PrepareCtx(ctx, sql)
	if err != nil {
		return nil, err
	}
	return stmt.ExecCtx(ctx, params...)
}

// ExplainCtx parses and optimizes without executing. The Result's
// PlanText holds the plan rendering: a budget-stopped optimization
// renders the degraded plan with a leading note naming the exhausted
// bound, and a cache-served plan carries a "-- cached" note.
// Parameterized statements explain the same dynamic plan Prepare would
// build.
func (db *DB) ExplainCtx(ctx context.Context, sql string) (*Result, error) {
	st, err := sqlish.Parse(db.cat, sql)
	if err != nil {
		return nil, err
	}
	nparams := countParams(st.Tree)
	if nparams > 1 {
		return nil, fmt.Errorf("vdb: at most one parameter is supported, query has %d", nparams)
	}
	start := time.Now()
	entry, outcome, err := db.serve(ctx, st, nparams)
	if err != nil {
		return nil, err
	}
	res := resultFrom(entry, outcome, time.Since(start))
	switch {
	case res.Degraded:
		res.PlanText = fmt.Sprintf("-- degraded: %v\n%s", res.StopReason, res.Plan.Format())
	case res.Cached:
		res.PlanText = "-- cached\n" + res.Plan.Format()
	default:
		res.PlanText = res.Plan.Format()
	}
	return res, nil
}

// countParams counts distinct parameter indexes in selection predicates.
func countParams(t *core.ExprTree) int {
	seen := map[int]bool{}
	var walk func(*core.ExprTree)
	walk = func(n *core.ExprTree) {
		if n.Op != nil {
			if s, ok := n.Op.(*rel.Select); ok && s.Pred.IsParam() {
				seen[s.Pred.Param] = true
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return len(seen)
}

// columnNames renders a schema with catalog names.
func columnNames(cat *rel.Catalog, schema *exec.Schema) []string {
	out := make([]string, 0, len(schema.Cols))
	for _, c := range schema.Cols {
		if c == rel.InvalidCol {
			out = append(out, "agg")
			continue
		}
		out = append(out, cat.Column(c).Qualified())
	}
	return out
}
