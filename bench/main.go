// Command bench is the repository's one benchmark: six named workloads
// over the whole stack (optimizer, plan cache, executor, daemon), eight
// end-to-end metrics per workload, and per-layer metrics obtained from
// outside by timing calls into each module's public functions. See
// README.md; BENCHMARK.json at the repository root is its contract.
//
//	bash bench/run.sh --workload opt-fig4 --seed 1993 --seconds 10 --trace 0
//	bash bench/run.sh --repeat 10            # spread of every metric against its bound
//	bash bench/run.sh --describe json        # BENCHMARK.json, from the Go definitions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A run sets up at least setupMinReps times, to report a median, and
// keeps repeating a set-up that takes milliseconds (opt-budgeted only
// draws queries) until setupMinTotal has gone by or setupMaxReps is
// reached, so that a median of a few timer readings is not what a later
// change is held to.
const (
	setupMinReps  = 3
	setupMaxReps  = 25
	setupMinTotal = 1500 * time.Millisecond
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", DevSeed, "seed of every generated input and RandSeed")
		seconds   = flag.Int("seconds", runSeconds, "how long the run measures")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/<workload>.trace.jsonl")
		repeat    = flag.Int("repeat", 0, "run every workload this many times and report each metric's spread against its bound")
		fixedSeed = flag.Bool("fixed-seed", false, "with -repeat: keep -seed for every run (default: seed, seed+1, ...)")
		describe  = flag.String("describe", "", "print 'json' (BENCHMARK.json) or 'md' (README tables) and exit")
	)
	flag.Parse()
	switch {
	case *describe == "json":
		os.Stdout.Write(describeJSON())
	case *describe == "md":
		fmt.Print(describeMarkdown())
	case *describe != "":
		fatal(fmt.Errorf("-describe takes json or md"))
	case *repeat > 0:
		if err := repeatAll(*repeat, *seed, *seconds, *fixedSeed, *name); err != nil {
			fatal(err)
		}
	default:
		if err := runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace != 0); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// gitSHA names the commit when the benchmark runs inside a git
// checkout; the driver's checkout is not one.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once and prints its metrics.
func runOne(name string, seed int64, d time.Duration, traced bool) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	defer w.close()

	var setups []float64
	for begin := time.Now(); ; {
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if traced { // the traced run reports no setup_s
			break
		}
		if n := len(setups); n >= setupMaxReps || n >= setupMinReps && time.Since(begin) >= setupMinTotal {
			break
		}
	}

	fmt.Printf("# bench %s  commit %s  seed %d  seconds %d  trace %v\n", name, gitSHA(), seed, int(d.Seconds()), traced)
	fmt.Printf("# %s  GOMAXPROCS %d  nproc %d  %s/%s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# inputs: %s\n", w.sizes())

	var total *result
	var values map[string]float64
	defs := endToEndDefs
	if !traced {
		if total, err = w.run(d); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		values = endToEnd(total, median(setups))
		fmt.Printf("# %d operations timed, %d beyond the 95th percentile\n", len(total.opMS), len(total.opMS)/20)
	} else {
		defs = perLayerDefs
		values = map[string]float64{}
		tr := newTracer()
		if total, err = w.trace(d, tr, values); err != nil {
			return fmt.Errorf("%s: traced run: %w", name, err)
		}
		values["bench.fail_share"] = ratio(float64(total.failed), float64(total.attempted))
		if dir, err := benchDir(); err == nil {
			path := filepath.Join(dir, "out", name+".trace.jsonl")
			if err := tr.write(path); err != nil {
				return fmt.Errorf("%s: writing the trace: %w", name, err)
			}
			fmt.Printf("# %d spans recorded, first %d operations written to %s\n", len(tr.spans), traceFileOps, path)
		}
	}

	rep := report{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := values[m.Name]
		fmt.Printf("%-36s %16.6g %s\n", m.Name, v, m.Unit)
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, p := range total.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		w.close()
		os.Exit(1)
	}
	return nil
}
