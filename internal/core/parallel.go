package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelJob describes one independent optimization: a query to build
// and the physical properties its plan must deliver. Each job gets its
// own Optimizer and memo, so jobs share nothing mutable; the Model (and
// anything the Build callback closes over) is the only shared state and
// must therefore be safe for concurrent reads. Models in this repository
// are immutable after construction, matching the paper's generated
// optimizers, whose rule sets and support functions are compiled in.
type ParallelJob struct {
	// Model is the data model to optimize over.
	Model Model
	// Options configures the job's optimizer; nil means defaults.
	Options *Options
	// Build inserts the job's query into the fresh optimizer and
	// returns its root class (typically via InsertQuery). Jobs built
	// through a callback are opaque to the batch deduplicator; prefer
	// Tree when the query is available as an expression tree.
	Build func(o *Optimizer) GroupID
	// Tree is the job's query as a logical expression tree; it is used
	// when Build is nil. Tree-form jobs are canonically fingerprinted,
	// and duplicates within one batch (same model, options, fingerprint,
	// and required properties) optimize exactly once: the duplicates
	// share the unique job's result with Stats.Coalesced set.
	Tree *ExprTree
	// Required is the physical property vector the final plan must
	// deliver; nil means no requirement.
	Required PhysProps
}

// ParallelResult is the outcome of one ParallelJob.
type ParallelResult struct {
	// Plan is the optimal plan, or nil if none exists within budget.
	// When Err is a budget error the plan may be a degraded (anytime)
	// result — the best complete plan found before the stop; see
	// Optimizer.OptimizeWithLimitCtx.
	Plan *Plan
	// Err is the optimizer error (e.g. a typed budget error matching
	// ErrBudget), if any.
	Err error
	// Stats are the job's search-effort counters. For a deduplicated
	// job they are the unique optimization's counters with Coalesced
	// set.
	Stats Stats
}

// ParallelOptimize runs the jobs across a pool of workers and returns
// one result per job, in job order. workers <= 0 uses GOMAXPROCS. The
// pool is shared-nothing: parallelism is across queries, never within
// one search, so each job's result is bit-identical to a serial run —
// the memo, winner tables, and move caches are all per-job.
//
// This is the coarse-grained counterpart to the paper's observation that
// optimization effort is dominated by independent per-query searches; a
// compile server batching many queries scales with cores without any
// locking in the search engine itself.
func ParallelOptimize(jobs []ParallelJob, workers int) []ParallelResult {
	return ParallelOptimizeCtx(context.Background(), jobs, workers)
}

// ParallelOptimizeCtx is ParallelOptimize under a context, giving the
// batch two cancellation scopes: canceling ctx stops the whole pool
// (every unfinished job degrades to its anytime result), while each
// job's own Options.Budget bounds that job alone — armed per job, so one
// pathological query exhausts only its own budget, not the batch's.
//
// Before any worker starts, tree-form jobs (ParallelJob.Tree) are
// deduplicated by canonical fingerprint: a batch of N identical queries
// runs one search, and the other N-1 results are shared copies with
// Stats.Coalesced set. The worker pool is sized to the number of unique
// jobs, never larger.
//
// When every job is tree-form over the same model and the same Options
// with Search.ShareMemo set, the batch instead optimizes over one
// shared memo (see sharedMemoOptimize): overlapping queries share
// exploration and winners, counted in Stats.SharedGroups and
// Stats.SharedWinners, and the whole batch runs under one armed Budget.
// Any batch not meeting those conditions runs the shared-nothing pool
// above, bit-identical to independent optimization.
func ParallelOptimizeCtx(ctx context.Context, jobs []ParallelJob, workers int) []ParallelResult {
	results := make([]ParallelResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	if sharedMemoBatch(jobs) {
		return sharedMemoOptimize(ctx, jobs)
	}

	unique, primary := coalesceJobs(jobs)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(unique) {
		workers = len(unique)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(unique) {
					return
				}
				j := unique[i]
				results[j] = runJob(ctx, &jobs[j])
			}
		}()
	}
	wg.Wait()

	for i, p := range primary {
		if p != i {
			r := results[p]
			r.Stats.Coalesced = true
			results[i] = r
		}
	}
	return results
}

// coalesceJobs groups duplicate tree-form jobs. It returns the indexes
// of the unique jobs to run and, for every job, the index of the job
// whose result it receives (itself when unique). Two jobs coalesce only
// when they share the model, the options value (by pointer, nil
// included), the required-property fingerprint, and — verified
// byte-for-byte against the canonical rendering, so fingerprint
// collisions cannot merge distinct queries — the canonical query tree.
func coalesceJobs(jobs []ParallelJob) (unique []int, primary []int) {
	type dupKey struct {
		model Model
		opts  *Options
		fp    Fingerprint
	}
	primary = make([]int, len(jobs))
	unique = make([]int, 0, len(jobs))
	var first map[dupKey]int
	var canons map[dupKey]string
	for i := range jobs {
		j := &jobs[i]
		if j.Build != nil || j.Tree == nil {
			primary[i] = i
			unique = append(unique, i)
			continue
		}
		fp, canon := FingerprintQuery(j.Model, j.Tree, j.Required)
		if first == nil {
			first = make(map[dupKey]int, len(jobs))
			canons = make(map[dupKey]string, len(jobs))
		}
		k := dupKey{model: j.Model, opts: j.Options, fp: fp}
		if p, ok := first[k]; ok && canons[k] == canon {
			primary[i] = p
			continue
		}
		first[k] = i
		canons[k] = canon
		primary[i] = i
		unique = append(unique, i)
	}
	return unique, primary
}

// sharedMemoBatch reports whether the batch qualifies for the
// shared-memo path: every job tree-form, over the same model and the
// same Options (by pointer), with Search.ShareMemo set.
func sharedMemoBatch(jobs []ParallelJob) bool {
	opts := jobs[0].Options
	if opts == nil || !opts.Search.ShareMemo {
		return false
	}
	model := jobs[0].Model
	for i := range jobs {
		j := &jobs[i]
		if j.Build != nil || j.Tree == nil || j.Model != model || j.Options != opts {
			return false
		}
	}
	return true
}

// sharedMemoOptimize runs a qualifying batch over one shared memo: all
// query trees are inserted into a single optimizer's memo and the root
// goals are optimized in job order by OptimizeBatchCtx.
// Duplicate queries need no special casing: their trees collapse to the
// same class on insertion and the second root consumes the first's
// winner warm.
//
// Every result carries the batch's shared Stats (SharedGroups,
// SharedWinners, and the combined effort counters); per-job effort is
// not separable once the work is shared.
func sharedMemoOptimize(ctx context.Context, jobs []ParallelJob) []ParallelResult {
	results := make([]ParallelResult, len(jobs))
	o := NewOptimizer(jobs[0].Model, jobs[0].Options)
	roots := make([]GroupID, len(jobs))
	reqs := make([]PhysProps, len(jobs))
	for i := range jobs {
		reqs[i] = jobs[i].Required
	}
	for i := range jobs {
		roots[i] = o.InsertQuery(jobs[i].Tree)
	}
	plans, err := o.OptimizeBatchCtx(ctx, roots, reqs)
	stats := *o.Stats()
	for i := range results {
		results[i] = ParallelResult{Plan: plans[i], Err: err, Stats: stats}
	}
	return results
}

// runJob executes one job on a fresh optimizer.
func runJob(ctx context.Context, job *ParallelJob) ParallelResult {
	o := NewOptimizer(job.Model, job.Options)
	var root GroupID
	if job.Build != nil {
		root = job.Build(o)
	} else {
		root = o.InsertQuery(job.Tree)
	}
	plan, err := o.OptimizeCtx(ctx, root, job.Required)
	return ParallelResult{Plan: plan, Err: err, Stats: *o.Stats()}
}
