// Command volcano-repl is an interactive shell over the demo database:
// type SQL, get optimized plans and rows. Meta commands:
//
//	\tables            list tables and statistics
//	\explain SELECT …  show the plan without executing
//	\memo SELECT …     show the memo after optimizing
//	\batch S1; S2; …   optimize and run statements over one shared memo
//	\stats             show the last optimization's full counters
//	\cache             show plan-cache counters
//	\policy NAME       set the search policy (exhaustive, mcts, widening)
//	\seed N            regenerate the database with a new seed
//	\quit
//
// \batch runs the multi-query path: the statements share one memo, and
// subplans common to several of them may be spooled once (Materialize)
// and rescanned (Reuse) when the cost model says that wins; \stats
// afterwards shows the sharing counters.
//
// Repeated queries are served from a fingerprint-keyed plan cache
// (-cache-size bytes; 0 disables), so only the first occurrence of a
// query shape pays for optimization.
//
// The database is the Figure-4 workload schema (tables R1..Rn with
// columns id, ja, jb, v), generated in memory — or, with -data DIR, a
// directory of <table>.csv files (integer values, header line naming
// the columns; statistics are gathered while loading).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
	"repro/internal/vdb"
)

func main() {
	seed := flag.Int64("seed", 1, "demo database seed")
	tables := flag.Int("tables", 4, "number of demo tables")
	limit := flag.Int("limit", 10, "rows displayed per query")
	dataDir := flag.String("data", "", "directory of <table>.csv files to load instead of the demo database")
	guided := flag.Bool("guided", false, "seed branch-and-bound with the greedy join-ordering plan")
	trace := flag.Bool("trace", false, "print search-trace events (winners, failures, violations)")
	timeout := flag.Duration("timeout", 0, "per-query optimization wall-clock budget (0 = unbounded)")
	maxSteps := flag.Int("max-steps", 0, "per-query optimization step budget in moves pursued (0 = unbounded)")
	cacheSize := flag.Int64("cache-size", 64<<20, "plan-cache budget in bytes (0 disables the cache)")
	searchPolicy := flag.String("search-policy", "exhaustive", "search policy: exhaustive, mcts, or widening")
	randSeed := flag.Int64("rand-seed", 0, "stochastic policy RNG seed (0 = fixed default; runs are deterministic either way)")
	episodes := flag.Int("episodes", 0, "stochastic policy episode count (0 = default)")
	batchSize := flag.Int("batch-size", 0, "executor rows per batch (0 = default)")
	execWorkers := flag.Int("exec-workers", 0, "exchange producer goroutines (0 = one per partition)")
	flag.Parse()

	pol, err := core.ParseSearchPolicy(*searchPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volcano-repl:", err)
		os.Exit(2)
	}

	budget := core.Budget{Timeout: *timeout, MaxSteps: *maxSteps}
	r := &repl{limit: *limit, tables: *tables, guided: *guided, trace: *trace, budget: budget,
		cacheBytes: *cacheSize, dataDir: *dataDir,
		policy: pol, randSeed: *randSeed, episodes: *episodes,
		batchSize: *batchSize, execWorkers: *execWorkers}
	if *dataDir != "" {
		if err := r.openDir(); err != nil {
			fmt.Fprintln(os.Stderr, "volcano-repl:", err)
			os.Exit(1)
		}
	} else {
		r.reset(*seed)
	}

	fmt.Println("volcano-repl — SQL over a Volcano-optimized demo database")
	fmt.Println(`type \tables to inspect the schema, \quit to leave`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("volcano> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !r.dispatch(line) {
			return
		}
		fmt.Print("volcano> ")
	}
}

type repl struct {
	db         *vdb.DB
	cat        *rel.Catalog
	seed       int64
	tables     int
	limit      int
	guided     bool
	trace      bool
	budget     core.Budget
	cacheBytes int64
	dataDir    string
	policy     core.SearchPolicy
	randSeed   int64
	episodes   int

	batchSize   int
	execWorkers int

	// last holds the most recent optimization's envelope, for \stats:
	// its counters and how its plan was served.
	last *vdb.Result
}

// options assembles the database options from the repl's flags.
func (r *repl) options() *vdb.Options {
	opts := &vdb.Options{Guided: r.guided, CacheBytes: r.cacheBytes}
	opts.Search.Budget = r.budget
	opts.Search.Search.Policy = r.policy
	opts.Search.Search.RandSeed = r.randSeed
	opts.Search.Search.Episodes = r.episodes
	opts.Exec.BatchSize = r.batchSize
	opts.Exec.ExchangeWorkers = r.execWorkers
	if r.trace {
		opts.Search.Trace.Tracer = core.ClassicTracer(func(line string) {
			fmt.Printf("  trace: %s\n", line)
		})
	}
	return opts
}

// openDir (re)opens the CSV-backed database with the current options.
func (r *repl) openDir() error {
	db, err := vdb.OpenDir(r.dataDir, r.options())
	if err != nil {
		return err
	}
	r.db, r.cat = db, db.Catalog()
	return nil
}

// reopen rebuilds the database so option changes (like \policy) take
// effect; the plan cache starts empty afterwards.
func (r *repl) reopen() error {
	if r.dataDir != "" {
		return r.openDir()
	}
	r.reset(r.seed)
	return nil
}

func (r *repl) reset(seed int64) {
	src := datagen.New(seed)
	r.cat = src.Catalog(r.tables)
	r.db = vdb.Open(r.cat, src.Rows(r.cat), r.options())
	r.seed = seed
}

// dispatch handles one input line; it reports false to exit.
func (r *repl) dispatch(line string) bool {
	switch {
	case line == `\quit` || line == `\q`:
		return false

	case line == `\tables`:
		for _, name := range r.cat.Tables() {
			t := r.cat.Table(name)
			fmt.Printf("%-4s %6d rows × %d B\n", name, t.Rows, t.RowBytes)
			for _, c := range t.Columns {
				m := r.cat.Column(c)
				fmt.Printf("     %-4s distinct=%-6d domain=[%d,%d]\n", m.Name, m.Distinct, m.Min, m.Max)
			}
		}

	case strings.HasPrefix(line, `\seed `):
		n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, `\seed `)), 10, 64)
		if err != nil {
			fmt.Println("usage: \\seed N")
			break
		}
		r.reset(n)
		fmt.Printf("database regenerated with seed %d\n", n)

	case strings.HasPrefix(line, `\explain `):
		res, err := r.db.ExplainCtx(context.Background(), strings.TrimPrefix(line, `\explain `))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		r.last = res
		fmt.Print(res.PlanText)

	case strings.HasPrefix(line, `\memo `):
		r.memo(strings.TrimPrefix(line, `\memo `))

	case line == `\policy`:
		fmt.Printf("search policy: %v\n", r.policy)

	case strings.HasPrefix(line, `\policy `):
		pol, err := core.ParseSearchPolicy(strings.TrimSpace(strings.TrimPrefix(line, `\policy `)))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		r.policy = pol
		if err := r.reopen(); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("search policy set to %v (plan cache cleared)\n", pol)

	case strings.HasPrefix(line, `\batch `):
		r.batch(strings.TrimPrefix(line, `\batch `))

	case line == `\stats`:
		r.stats()

	case line == `\cache`:
		c := r.db.PlanCache()
		if c == nil {
			fmt.Println("plan cache disabled (-cache-size 0)")
			break
		}
		ct := c.Counters()
		fmt.Printf("plan cache: %d hits, %d misses, %d coalesced, %d evictions\n",
			ct.CacheHits, ct.CacheMisses, ct.Coalesced, ct.Evictions)
		fmt.Printf("            %d entries, %d bytes resident\n", ct.Entries, ct.CacheBytes)

	case strings.HasPrefix(line, `\`):
		fmt.Println("unknown command; available: \\tables \\explain \\memo \\batch \\stats \\cache \\policy \\seed \\quit")

	default:
		r.query(line)
	}
	return true
}

func (r *repl) memo(sql string) {
	st, err := sqlish.Parse(r.cat, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	model := relopt.New(r.cat, relopt.DefaultConfig())
	opts := &core.Options{Budget: r.budget}
	opts.Search.Policy = r.policy
	opts.Search.RandSeed = r.randSeed
	opts.Search.Episodes = r.episodes
	if r.guided {
		opts.Guidance.SeedPlanner = model.SeedPlanner()
	}
	opt := core.NewOptimizer(model, opts)
	root := opt.InsertQuery(st.Tree)
	if _, err := opt.Optimize(root, st.Required); err != nil {
		// A budget stop still leaves a well-formed (partial) memo and
		// meaningful counters; only hard errors abandon the command.
		if !errors.Is(err, core.ErrBudget) {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("budget exhausted (%v); showing the partial memo\n", err)
	}
	r.last = &vdb.Result{Stats: *opt.Stats()}
	fmt.Print(opt.Memo().Format())
}

// batch optimizes semicolon-separated statements over one shared memo
// and executes them against a batch-shared spool store.
func (r *repl) batch(input string) {
	var sqls []string
	for _, s := range strings.Split(input, ";") {
		if s = strings.TrimSpace(s); s != "" {
			sqls = append(sqls, s)
		}
	}
	if len(sqls) == 0 {
		fmt.Println("usage: \\batch SELECT …; SELECT …")
		return
	}
	res, err := r.db.QueryBatch(sqls)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r.last = &vdb.Result{Stats: res.Stats}
	for i, q := range res.Results {
		fmt.Printf("-- statement %d: %s\n", i+1, sqls[i])
		fmt.Print(q.Plan.Format())
		fmt.Printf("%d rows\n", len(q.Rows))
	}
	fmt.Printf("batch: %d statements, %d shared classes, %d shared winner nodes, %d subplans spooled\n",
		len(res.Results), res.Stats.SharedGroups, res.Stats.SharedWinners, res.Spools)
}

// stats prints the last optimization's counters plus the session's
// cache and executor totals, through the same metrics.Snapshot schema
// the volcano-serve /metrics endpoint renders.
func (r *repl) stats() {
	if r.last == nil {
		fmt.Println("no optimization has run yet")
		return
	}
	search := metrics.FromStats(r.last.Stats)
	if r.last.Cached {
		search.CacheHits = 1
	}
	if r.last.Coalesced {
		search.Coalesced = 1
	}
	snap := metrics.Snapshot{Search: search}
	if c := r.db.PlanCache(); c != nil {
		counters := c.Counters()
		snap.Cache = &counters
	}
	execCounters := r.db.ExecCounters()
	snap.Exec = &execCounters
	fmt.Print(snap.Format())
}

func (r *repl) query(sql string) {
	res, err := r.db.Query(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r.last = res
	fmt.Print(res.Plan.Format())
	fmt.Printf("(%s)\n", strings.Join(res.Columns, ", "))
	for i, row := range res.Rows {
		if i >= r.limit {
			fmt.Printf("... %d more rows\n", len(res.Rows)-r.limit)
			break
		}
		fmt.Println(row)
	}
	fmt.Printf("%d rows; %d classes, %d expressions explored\n",
		len(res.Rows), res.Stats.Groups, res.Stats.Exprs)
	if res.Cached {
		fmt.Println("plan served from cache")
	}
	if res.Degraded {
		fmt.Printf("degraded: %v after %d steps; ran best plan found\n",
			res.StopReason, res.Stats.Steps())
	}
	if r.guided {
		if res.Stats.SeedCost == nil {
			fmt.Println("guided: seed planner declined; search ran unguided")
		} else {
			fmt.Printf("guided: seed cost %v, final cost %v, %d limit stage(s)\n",
				res.Stats.SeedCost, res.Plan.Cost, res.Stats.LimitStages)
		}
	}
}
