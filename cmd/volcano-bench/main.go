// Command volcano-bench regenerates the paper's evaluation: Figure 4
// and the experiments behind its section 6 mechanism claims.
//
//	volcano-bench -experiment fig4       # Figure 4: Volcano vs EXODUS
//	volcano-bench -experiment ablation   # pruning / failure memo / glue mode
//	volcano-bench -experiment altprops   # alternative input property combinations
//	volcano-bench -experiment leftdeep   # left-deep restriction by condition code
//	volcano-bench -experiment heuristic  # top-k moves per goal vs exhaustive
//	volcano-bench -experiment setops     # cost-based N-way intersection order
//	volcano-bench -experiment memory     # < 1 MB work space claim
//	volcano-bench -experiment all
//
// Flags tune the workload; defaults follow the paper (50 random
// select-join queries per complexity level, 2-8 input relations, tables
// of 1,200-7,200 records of 100 bytes).
//
// -cpuprofile and -memprofile write pprof profiles of whatever
// experiment runs.
//
// The fig4 experiment additionally writes a machine-readable report
// (default BENCH_fig4.json; -json "" disables) so per-level optimization
// time, plan cost, memo size, and search-effort counters can be tracked
// across commits. A run writes the whole report — the levels it measured,
// with its commit, Go version, GOMAXPROCS and CPU count; `make fig4-json`
// regenerates the committed one.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/fig4"
)

func main() {
	experiment := flag.String("experiment", "fig4", "fig4 | ablation | altprops | leftdeep | heuristic | setops | memory | all")
	queries := flag.Int("queries", 50, "queries per complexity level")
	seed := flag.Int64("seed", 1993, "workload seed")
	minRels := flag.Int("min-rels", 2, "smallest number of input relations")
	maxRels := flag.Int("max-rels", 8, "largest number of input relations")
	shape := flag.String("shape", "random", "join graph shape: random | chain | star")
	timeout := flag.Duration("exodus-timeout", 30*time.Second, "per-query EXODUS time budget")
	maxNodes := flag.Int("exodus-max-nodes", 1<<20, "EXODUS MESH node budget")
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

	// The fig4 points feed the JSON report, written after all requested
	// experiments have run; memory reuses them when fig4 ran first.
	var fig4Points []fig4.Point

	run := func(name string) {
		switch name {
		case "fig4":
			fig4Points = fig4.Run(cfg)
			fmt.Print(fig4.Format(fig4Points))
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
		case "memory":
			points := fig4Points
			if points == nil {
				points = fig4.Run(cfg)
			}
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
		for _, name := range []string{"fig4", "ablation", "altprops", "leftdeep", "heuristic", "setops", "memory"} {
			run(name)
		}
	} else {
		run(*experiment)
	}

	if *jsonPath != "" && fig4Points != nil {
		rep := fig4.NewBenchReport(gitCommit(), cfg, fig4Points)
		if err := fig4.WriteBenchJSON(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "volcano-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", *jsonPath)
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
