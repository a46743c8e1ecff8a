// Command volcano-bench regenerates the paper's evaluation and the
// repository's ablation experiments:
//
//	volcano-bench -experiment fig4       # Figure 4: Volcano vs EXODUS
//	volcano-bench -experiment fig4guided # guided B&B vs exhaustive A/B
//	volcano-bench -experiment fig4par    # worker-pool throughput sweep
//	volcano-bench -experiment fig4cache  # plan-cache hit vs cold latency
//	volcano-bench -experiment fig4mqo    # shared-memo multi-query optimization
//	volcano-bench -experiment fig4mcts   # stochastic policies vs guided B&B at 10-16 relations
//	volcano-bench -experiment e2e        # optimize-and-execute engine A/B
//	volcano-bench -experiment serve      # serving tier under open-loop load
//	volcano-bench -experiment ablation   # pruning / failure memo / glue mode
//	volcano-bench -experiment altprops  # alternative input property combinations
//	volcano-bench -experiment memory    # < 1 MB work space claim
//	volcano-bench -experiment anytime   # graceful degradation under budgets
//	volcano-bench -experiment all
//
// The anytime experiment sweeps shrinking optimization budgets over the
// hardest queries (override with -timeout / -max-steps to test a single
// budget) and exits non-zero if any budget-stopped search violates the
// anytime contract — that is, fails to return a complete plan with the
// required properties costing no more than the greedy seed.
//
// Flags tune the workload; defaults follow the paper (50 random
// select-join queries per complexity level, 2-8 input relations, tables
// of 1,200-7,200 records of 100 bytes).
//
// -cpuprofile and -memprofile write pprof profiles of whatever
// experiment runs.
//
// The e2e experiment optimizes AND executes workloads over generated
// tables of -rows rows each, A/B-ing the row kernels row-at-a-time and
// batched (-batch-size) against the default build (vectorized kernels
// over per-column batches wherever the plan allows), and the default
// build behind a parallel exchange at degrees 2, 4, and 8 (-exec-workers
// caps the producer goroutines). It exits non-zero if any engine's result
// multiset diverges from the row-engine baseline. -seed pins the
// generated dataset (default 1993), so a recorded run is reproducible
// bit-for-bit; the seed used is recorded in the JSON report's e2e
// section.
//
// The fig4mqo experiment optimizes an overlapping batch of queries over
// one shared memo (core.ParallelOptimizeCtx with Search.ShareMemo),
// applies the cost-based Materialize/Reuse post-pass, and executes the
// rewritten plans against generated tables of -rows rows. It exits
// non-zero if any plan cost with sharing disabled diverges from
// independent optimization, or if any shared-batch result multiset
// diverges from independent execution.
//
// The serve experiment starts an in-process volcano-serve daemon over
// generated tables (-serve-rows each), measures an unloaded open-loop
// run, then offers roughly twice the tier's estimated capacity for
// -serve-duration to exercise admission control, budget degradation,
// and shedding. Every completed response is checked against reference
// row fingerprints collected before any load; the experiment exits
// non-zero on any mismatch.
//
// The fig4mcts experiment maps the quality-vs-time frontier of the
// budgeted stochastic search policies (MCTS and iterative widening)
// against guided branch-and-bound under shared step budgets on 10-16
// relation queries (-mcts-levels, -mcts-steps, -queries tune the grid;
// it is not part of -experiment all because the default grid is
// expensive). It exits non-zero if any returned plan violates the
// anytime contract or if a stochastic policy's mean plan cost exceeds
// 1.5x guided branch-and-bound in any cell. Results land in the JSON
// report's quality section.
//
// The fig4 experiment additionally writes a machine-readable report
// (default BENCH_fig4.json; -json "" disables) so per-level optimization
// time, plan cost, memo size, and search-effort counters can be tracked
// across commits.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fig4"
)

func main() {
	experiment := flag.String("experiment", "fig4", "fig4 | fig4guided | fig4par | fig4cache | fig4mqo | fig4mcts | e2e | serve | ablation | altprops | leftdeep | heuristic | setops | memory | anytime | all")
	queries := flag.Int("queries", 50, "queries per complexity level")
	seed := flag.Int64("seed", 1993, "workload seed")
	minRels := flag.Int("min-rels", 2, "smallest number of input relations")
	maxRels := flag.Int("max-rels", 8, "largest number of input relations")
	shape := flag.String("shape", "random", "join graph shape: random | chain | star")
	timeout := flag.Duration("exodus-timeout", 30*time.Second, "per-query EXODUS time budget")
	maxNodes := flag.Int("exodus-max-nodes", 1<<20, "EXODUS MESH node budget")
	workers := flag.Int("workers", 0, "fig4par worker-pool size (0 = GOMAXPROCS)")
	cacheBytes := flag.Int64("cache-size", 0, "fig4cache plan-cache budget in bytes (0 = cache default)")
	optTimeout := flag.Duration("timeout", 0, "anytime per-query wall-clock budget (0 = sweep defaults)")
	optSteps := flag.Int("max-steps", 0, "anytime per-query step budget in moves pursued (0 = sweep defaults)")
	e2eRows := flag.Int64("rows", 1_000_000, "e2e target rows per generated table")
	serveRows := flag.Int64("serve-rows", 5000, "serve experiment rows per generated table")
	serveDuration := flag.Duration("serve-duration", 3*time.Second, "serve experiment length per phase")
	batchSize := flag.Int("batch-size", 0, "e2e executor rows per batch (0 = default)")
	execWorkers := flag.Int("exec-workers", 0, "e2e exchange producer goroutines (0 = one per partition)")
	mctsLevels := flag.String("mcts-levels", "", "fig4mcts comma-separated relation counts (empty = 10,12,14,16)")
	mctsSteps := flag.String("mcts-steps", "", "fig4mcts comma-separated step budgets (empty = 300,1000,3000,10000)")
	jsonPath := flag.String("json", "BENCH_fig4.json", "machine-readable fig4 report path (empty = skip)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "volcano-bench: creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "volcano-bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "volcano-bench: creating %s: %v\n", *memProfile, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "volcano-bench: writing heap profile: %v\n", err)
			}
		}()
	}

	var sh datagen.Shape
	switch *shape {
	case "random":
		sh = datagen.ShapeRandom
	case "chain":
		sh = datagen.ShapeChain
	case "star":
		sh = datagen.ShapeStar
	default:
		fmt.Fprintf(os.Stderr, "volcano-bench: unknown shape %q\n", *shape)
		os.Exit(2)
	}
	cfg := fig4.Config{
		Seed:            *seed,
		QueriesPerLevel: *queries,
		MinRelations:    *minRels,
		MaxRelations:    *maxRels,
		Shape:           sh,
		ExodusMaxNodes:  *maxNodes,
		ExodusTimeout:   *timeout,
	}

	// The fig4, fig4par, and fig4cache results feed one combined JSON
	// report, written after all requested experiments have run.
	var fig4Points []fig4.Point
	var fig4Sweep *fig4.Sweep
	var fig4Cache *fig4.CacheResult
	var fig4E2E *fig4.E2EResult
	var fig4MQO *fig4.MQOResult
	var fig4Serve *fig4.ServeResult
	var fig4Quality *fig4.QualityResult

	run := func(name string) {
		switch name {
		case "fig4":
			fig4Points = fig4.Run(cfg)
			fmt.Print(fig4.Format(fig4Points))
		case "fig4guided":
			fmt.Print(fig4.FormatGuided(fig4.RunGuided(cfg)))
		case "fig4par":
			sweep := fig4.RunVolcanoSweep(cfg, *workers)
			fig4Sweep = &sweep
			fmt.Print(fig4.FormatSweep(sweep))
		case "e2e":
			e2e := fig4.RunE2E(cfg, *e2eRows, *batchSize, *execWorkers, nil)
			fig4E2E = &e2e
			fmt.Print(fig4.FormatE2E(e2e))
			if e2e.Mismatches > 0 {
				fmt.Fprintf(os.Stderr, "volcano-bench: %d executed results diverged from the row-engine baseline\n", e2e.Mismatches)
				os.Exit(1)
			}
		case "fig4mqo":
			mqo := fig4.RunMQO(cfg, *e2eRows)
			fig4MQO = &mqo
			fmt.Print(fig4.FormatMQO(mqo))
			if mqo.CostMismatches > 0 {
				fmt.Fprintf(os.Stderr, "volcano-bench: %d no-sharing batch plans diverged from independent optimization costs\n", mqo.CostMismatches)
				os.Exit(1)
			}
			if mqo.Mismatches > 0 {
				fmt.Fprintf(os.Stderr, "volcano-bench: %d shared-batch results diverged from independent execution\n", mqo.Mismatches)
				os.Exit(1)
			}
		case "serve":
			res, err := fig4.RunServe(fig4.ServeConfig{
				Seed:     *seed,
				Rows:     *serveRows,
				Duration: *serveDuration,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "volcano-bench: serve: %v\n", err)
				os.Exit(1)
			}
			fig4Serve = &res
			fmt.Print(fig4.FormatServe(res))
			if res.Mismatches > 0 {
				fmt.Fprintf(os.Stderr, "volcano-bench: %d loaded-server results diverged from the unloaded reference\n", res.Mismatches)
				os.Exit(1)
			}
		case "fig4cache":
			fig4Cache = fig4.RunCache(fig4.CacheConfig{
				Seed:            *seed,
				QueriesPerLevel: *queries,
				MinRelations:    *minRels,
				MaxRelations:    *maxRels,
				Shape:           sh,
				CacheBytes:      *cacheBytes,
			})
			fmt.Print(fig4.FormatCache(fig4Cache))
			if fig4Cache.Mismatches > 0 {
				fmt.Fprintf(os.Stderr, "volcano-bench: %d cache-served plans diverged from fresh optimization costs\n", fig4Cache.Mismatches)
				os.Exit(1)
			}
		case "fig4mcts":
			levels, err := parseIntList(*mctsLevels)
			if err != nil {
				fmt.Fprintf(os.Stderr, "volcano-bench: -mcts-levels: %v\n", err)
				os.Exit(2)
			}
			steps, err := parseIntList(*mctsSteps)
			if err != nil {
				fmt.Fprintf(os.Stderr, "volcano-bench: -mcts-steps: %v\n", err)
				os.Exit(2)
			}
			fig4Quality = fig4.RunMCTS(cfg, levels, steps)
			fmt.Print(fig4.FormatMCTS(fig4Quality))
			if fig4Quality.VetFailures > 0 {
				fmt.Fprintf(os.Stderr, "volcano-bench: %d stochastic-policy plans violated the anytime contract\n", fig4Quality.VetFailures)
				os.Exit(1)
			}
			for _, p := range fig4Quality.Points {
				if p.MCTSVsGuided > 1.5 || p.WideningVsGuided > 1.5 {
					fmt.Fprintf(os.Stderr, "volcano-bench: stochastic plan cost exceeded 1.5x guided B&B at %d relations / %d steps (mcts %.3fx, widening %.3fx)\n",
						p.Relations, p.MaxSteps, p.MCTSVsGuided, p.WideningVsGuided)
					os.Exit(1)
				}
			}
		case "ablation":
			fmt.Print(fig4.FormatAblation(fig4.RunAblation(cfg)))
		case "altprops":
			fmt.Print(fig4.FormatAltProps(fig4.RunAltProps()))
		case "leftdeep":
			fmt.Print(fig4.FormatLeftDeep(fig4.RunLeftDeep(cfg)))
		case "heuristic":
			fmt.Print(fig4.FormatHeuristic(fig4.RunHeuristic(cfg)))
		case "setops":
			fmt.Print(fig4.FormatSetOps(fig4.RunSetOps()))
		case "anytime":
			budgets := []core.Budget{
				{Timeout: 50 * time.Millisecond},
				{Timeout: 5 * time.Millisecond},
				{Timeout: 500 * time.Microsecond},
				{MaxSteps: 1000},
				{MaxSteps: 100},
				{MaxSteps: 10},
			}
			if *optTimeout > 0 || *optSteps > 0 {
				budgets = []core.Budget{{Timeout: *optTimeout, MaxSteps: *optSteps}}
			}
			points := fig4.RunAnytime(cfg, budgets)
			fmt.Print(fig4.FormatAnytime(points))
			for _, p := range points {
				if p.Invalid > 0 {
					fmt.Fprintf(os.Stderr, "volcano-bench: %d budget-stopped searches violated the anytime contract\n", p.Invalid)
					os.Exit(1)
				}
			}
		case "memory":
			points := fig4.Run(cfg)
			fmt.Println("Peak optimizer work space (mean per query)")
			fmt.Printf("%-5s %12s %12s\n", "rels", "volcano", "exodus")
			for _, p := range points {
				fmt.Printf("%-5d %11dB %11dB\n", p.Relations, p.VolcanoMemBytes, p.ExodusMemBytes)
			}
			fmt.Println("(the paper reports Volcano within 1 MB for every test query)")
		default:
			fmt.Fprintf(os.Stderr, "volcano-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *experiment == "all" {
		for _, name := range []string{"fig4", "fig4guided", "fig4par", "fig4cache", "fig4mqo", "e2e", "serve", "ablation", "altprops", "leftdeep", "heuristic", "setops", "memory", "anytime"} {
			run(name)
		}
	} else {
		run(*experiment)
	}

	if *jsonPath != "" && (fig4Points != nil || fig4Sweep != nil || fig4Cache != nil || fig4E2E != nil || fig4MQO != nil || fig4Serve != nil || fig4Quality != nil) {
		rep := fig4.NewBenchReport(cfg, fig4Points, fig4Sweep)
		rep.Cache = fig4Cache
		rep.E2E = fig4E2E
		rep.MQO = fig4MQO
		rep.Serve = fig4Serve
		rep.Quality = fig4Quality
		// Keep the sections of experiments this invocation did not rerun,
		// and merge rerun levels into the existing per-level curve.
		if old, err := fig4.ReadBenchJSON(*jsonPath); err == nil {
			if fig4Points == nil && old.Points != nil {
				rep.Points, rep.Config = old.Points, old.Config
			} else if fig4Points != nil && old.Points != nil {
				rep.Points = fig4.MergeBenchPoints(old.Points, rep.Points)
				if n := len(rep.Points); n > 0 {
					rep.Config.MinRelations = rep.Points[0].Relations
					rep.Config.MaxRelations = rep.Points[n-1].Relations
				}
			}
			if fig4Sweep == nil {
				rep.Parallel = old.Parallel
			}
			if fig4Cache == nil {
				rep.Cache = old.Cache
			}
			if fig4E2E == nil {
				rep.E2E = old.E2E
			}
			if fig4MQO == nil {
				rep.MQO = old.MQO
			}
			if fig4Serve == nil {
				rep.Serve = old.Serve
			}
			if fig4Quality == nil {
				rep.Quality = old.Quality
			}
		}
		if err := fig4.WriteBenchJSON(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "volcano-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", *jsonPath)
	}
}

// parseIntList parses a comma-separated list of positive integers; an
// empty string yields nil (the experiment's defaults).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
