package vdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sqlish"
)

// BatchResult is the outcome of one QueryBatch call.
type BatchResult struct {
	// Results holds one executed query per statement, in input order.
	// Every Result reports Cached false: the plan cache is bypassed for
	// batches, because sharing decisions are batch-relative — a Reuse
	// plan rescans a spool only its own batch fills, so neither serving
	// a batch plan from the cache nor inserting one is sound. Each
	// Result's OptimizeTime is the whole batch's shared optimization
	// time; ExecTime is that statement's own.
	Results []*Result
	// Stats are the shared optimization's counters, including
	// SharedGroups and SharedWinners; per-query effort is not separable
	// once the search is shared, so every Result carries this same
	// value.
	Stats core.Stats
	// Spools is the number of Materialize/Reuse pairs the cost-based
	// post-pass introduced: shared subplans computed once and rescanned
	// instead of recomputed.
	Spools int
}

// PrepareBatch optimizes a batch of fully specified statements over one
// shared memo without executing them; see QueryBatchCtx for the
// sharing contract. The returned plans must be executed in order
// against one exec.SpoolStore (exec.Options.Spools) whenever Spools is
// non-zero.
func (db *DB) PrepareBatch(sqls []string) ([]*core.Plan, *BatchResult, error) {
	return db.PrepareBatchCtx(context.Background(), sqls)
}

// PrepareBatchCtx is PrepareBatch under a context.
func (db *DB) PrepareBatchCtx(ctx context.Context, sqls []string) ([]*core.Plan, *BatchResult, error) {
	if len(sqls) == 0 {
		return nil, &BatchResult{}, nil
	}
	opts := db.opts.Search
	if b, ok := budgetFrom(ctx); ok {
		opts.Budget = b
	}
	// Guided search seeds one root's cost limit; the multi-root batch
	// engine has no per-root limits to seed, so the batch path always
	// runs unguided.
	opts.Guidance.SeedPlanner = nil
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	opt := core.NewOptimizer(db.model, &opts)
	roots := make([]core.GroupID, len(sqls))
	reqs := make([]core.PhysProps, len(sqls))
	for i, sql := range sqls {
		st, err := sqlish.Parse(db.cat, sql)
		if err != nil {
			return nil, nil, fmt.Errorf("vdb: batch statement %d: %w", i, err)
		}
		if countParams(st.Tree) != 0 {
			return nil, nil, fmt.Errorf("vdb: batch statement %d: batch queries must be fully specified", i)
		}
		roots[i], reqs[i] = opt.InsertQuery(st.Tree), st.Required
	}
	plans, err := opt.OptimizeBatchCtx(ctx, roots, reqs)
	if err != nil && !errors.Is(err, core.ErrBudget) {
		return nil, nil, fmt.Errorf("vdb: batch: %w", err)
	}
	for i, p := range plans {
		if p == nil && err != nil {
			return nil, nil, fmt.Errorf("vdb: batch statement %d: %w", i, err)
		}
		if p == nil {
			return nil, nil, fmt.Errorf("vdb: batch statement %d: no plan satisfies the query", i)
		}
	}
	out := &BatchResult{Stats: *opt.Stats()}
	plans, out.Spools = core.MaterializeSharedPlans(db.model, plans)
	return plans, out, nil
}

// QueryBatch optimizes and executes a batch of fully specified
// statements as one unit; see QueryBatchCtx.
func (db *DB) QueryBatch(sqls []string) (*BatchResult, error) {
	return db.QueryBatchCtx(context.Background(), sqls)
}

// QueryBatchCtx optimizes a batch of fully specified statements over
// one shared memo — overlapping queries share exploration and winners —
// applies the cost-based Materialize/Reuse post-pass, and executes the
// plans in order against a batch-shared spool store, so a subplan
// common to several queries is computed once and rescanned by the rest.
// Results are returned in statement order; every result's multiset is
// identical to running the statement alone. The configured
// Search.Budget bounds the whole batch; a budget stop degrades each
// query to its best known plan (Result.Degraded), as single-statement
// queries do. The plan cache is bypassed: sharing decisions are
// batch-relative and a Reuse plan is only valid within its batch.
func (db *DB) QueryBatchCtx(ctx context.Context, sqls []string) (*BatchResult, error) {
	optStart := time.Now()
	plans, out, err := db.PrepareBatchCtx(ctx, sqls)
	if err != nil {
		return nil, err
	}
	optTime := time.Since(optStart)
	execOpts := db.opts.Exec
	execOpts.Spools = exec.NewSpoolStore()
	for i, p := range plans {
		execStart := time.Now()
		rows, schema, err := exec.RunOpts(ctx, db.data, p, nil, execOpts)
		if err != nil {
			return nil, fmt.Errorf("vdb: batch statement %d: %w", i, err)
		}
		out.Results = append(out.Results, &Result{
			Rows:         rows,
			Columns:      columnNames(db.cat, schema),
			Plan:         p,
			Cost:         p.Cost,
			Stats:        out.Stats,
			Degraded:     out.Stats.StopReason != nil,
			StopReason:   out.Stats.StopReason,
			OptimizeTime: optTime,
			ExecTime:     time.Since(execStart),
		})
	}
	return out, nil
}
