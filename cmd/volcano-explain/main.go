// Command volcano-explain optimizes (and optionally executes) ad-hoc
// queries against a generated demo database, printing the chosen plan
// with costs and delivered physical properties — an EXPLAIN for the
// Volcano optimizer.
//
//	volcano-explain "SELECT R1.id FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.id"
//	volcano-explain -run "SELECT ja, COUNT(*) FROM R1 GROUP BY ja"
//	volcano-explain -baseline -trace "SELECT ..."
//
// The demo catalog holds eight tables R1..R8 with columns id, ja, jb, v
// (the Figure-4 workload schema); -tables and -seed regenerate it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/exodus"
	"repro/internal/plancache"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

func main() {
	seed := flag.Int64("seed", 1, "demo database seed")
	tables := flag.Int("tables", 8, "number of demo tables")
	run := flag.Bool("run", false, "execute the plan and print up to -limit rows")
	limit := flag.Int("limit", 10, "rows to print with -run")
	trace := flag.Bool("trace", false, "print search-trace events (winners, failures, violations)")
	traceAll := flag.Bool("trace-all", false, "print every structured search-trace event")
	baseline := flag.Bool("baseline", false, "also optimize with the EXODUS-style baseline")
	stats := flag.Bool("stats", false, "print search statistics")
	guided := flag.Bool("guided", false, "seed branch-and-bound with the greedy join-ordering plan")
	memo := flag.Bool("memo", false, "dump the memo (classes, expressions, winners)")
	dot := flag.Bool("dot", false, "print the plan as a Graphviz digraph")
	timeout := flag.Duration("timeout", 0, "optimization wall-clock budget (0 = unbounded); on exhaustion the best plan found is printed")
	maxSteps := flag.Int("max-steps", 0, "optimization step budget in moves pursued (0 = unbounded)")
	cacheSize := flag.Int64("cache-size", 0, "plan-cache budget in bytes; >0 replays the query through the plan cache and reports the verified-hit latency")
	searchPolicy := flag.String("search-policy", "exhaustive", "search policy: exhaustive, mcts, or widening")
	randSeed := flag.Int64("rand-seed", 0, "stochastic policy RNG seed (0 = fixed default; runs are deterministic either way)")
	episodes := flag.Int("episodes", 0, "stochastic policy episode count (0 = default)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: volcano-explain [flags] \"SELECT ...\"")
		flag.Usage()
		os.Exit(2)
	}
	sql := flag.Arg(0)

	src := datagen.New(*seed)
	cat := src.Catalog(*tables)

	st, err := sqlish.Parse(cat, sql)
	if err != nil {
		fatal(err)
	}

	opts := &core.Options{}
	emit := func(line string) { fmt.Printf("  trace: %s\n", line) }
	switch {
	case *traceAll:
		opts.Trace.Tracer = core.TextTracer(emit)
	case *trace:
		opts.Trace.Tracer = core.ClassicTracer(emit)
	}
	opts.Budget.Timeout = *timeout
	opts.Budget.MaxSteps = *maxSteps
	pol, err := core.ParseSearchPolicy(*searchPolicy)
	if err != nil {
		fatal(err)
	}
	opts.Search.Policy = pol
	opts.Search.RandSeed = *randSeed
	opts.Search.Episodes = *episodes
	model := relopt.New(cat, relopt.DefaultConfig())
	if *guided {
		opts.Guidance.SeedPlanner = model.SeedPlanner()
	}
	opt := core.NewOptimizer(model, opts)
	root := opt.InsertQuery(st.Tree)
	var required core.PhysProps
	if st.Required != nil {
		required = st.Required
	}
	start := time.Now()
	plan, err := opt.Optimize(root, required)
	elapsed := time.Since(start)
	degraded := false
	if err != nil {
		if plan == nil || !errors.Is(err, core.ErrBudget) {
			fatal(err)
		}
		degraded = true
	}
	if plan == nil {
		fatal(fmt.Errorf("no plan satisfies the query requirements"))
	}

	fmt.Printf("optimized in %v (%d classes, %d expressions)\n\n",
		elapsed, opt.Stats().Groups, opt.Stats().Exprs)
	if degraded {
		fmt.Printf("-- degraded: %v after %d steps; best plan found:\n", err, opt.Stats().Steps())
	}
	fmt.Print(plan.Format())
	if *guided {
		s := opt.Stats()
		if s.SeedCost == nil {
			fmt.Printf("\nguided: seed planner declined; search ran unguided\n")
		} else {
			fmt.Printf("\nguided: seed cost %v, final cost %v, %d limit stage(s), %d goals pruned, %d moves skipped\n",
				s.SeedCost, plan.Cost, s.LimitStages, s.GoalsPruned, s.MovesSkipped)
		}
	}
	if *stats {
		fmt.Printf("\nsearch statistics: %+v\n", *opt.Stats())
	}
	if *memo {
		fmt.Printf("\nmemo:\n%s", opt.Memo().Format())
	}
	if *dot {
		fmt.Printf("\n%s", plan.Dot())
	}

	if *cacheSize > 0 && !degraded {
		cache := plancache.New(plancache.Options{MaxBytes: *cacheSize})
		fp, canon := core.FingerprintQuery(model, st.Tree, required)
		cache.Put(fp, canon, &plancache.Entry{Plan: plan, Cost: plan.Cost, Stats: *opt.Stats()})
		wStart := time.Now()
		wfp, wcanon := core.FingerprintQuery(model, st.Tree, required)
		e, ok := cache.Get(wfp, wcanon)
		wElapsed := time.Since(wStart)
		if !ok {
			fatal(fmt.Errorf("plan cache replay missed"))
		}
		if e.Cost != plan.Cost {
			fatal(fmt.Errorf("plan cache replay cost %v differs from fresh cost %v", e.Cost, plan.Cost))
		}
		fmt.Printf("\nplan cache: fingerprint %s, verified hit in %v (cold optimization took %v)\n",
			fp, wElapsed, elapsed)
	}

	if *baseline {
		ex := exodus.New(cat, exodus.Config{Timeout: 30 * time.Second})
		var sortCol rel.ColID
		if st.Required != nil && len(st.Required.Sort) > 0 {
			sortCol = st.Required.Sort[0].Col
		}
		bStart := time.Now()
		node, cost, err := ex.Optimize(st.Tree, sortCol)
		bElapsed := time.Since(bStart)
		if err != nil {
			fmt.Printf("\nEXODUS baseline: aborted (%v)\n", err)
		} else {
			fmt.Printf("\nEXODUS baseline: %s, estimated cost %s (vs %s) in %v\n",
				node.Alg, cost, plan.Cost, bElapsed)
		}
	}

	if *run {
		db := exec.FromData(cat, src.Rows(cat))
		rows, schema, err := exec.Run(db, plan)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%d rows", len(rows))
		names := make([]string, 0, len(schema.Cols))
		for _, c := range schema.Cols {
			if c == rel.InvalidCol {
				names = append(names, "agg")
				continue
			}
			names = append(names, cat.Column(c).Qualified())
		}
		fmt.Printf("  (%s)\n", strings.Join(names, ", "))
		for i, r := range rows {
			if i >= *limit {
				fmt.Printf("... %d more\n", len(rows)-*limit)
				break
			}
			fmt.Println(" ", r)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "volcano-explain:", err)
	os.Exit(1)
}
