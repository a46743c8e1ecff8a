package main

import (
	"fmt"
	"time"
)

// A workload is one set of inputs the benchmark runs. setup does
// everything that precedes the timed run and is called several times
// (each call replaces the previous state) so that setup_s is a median;
// run is the timed, untraced run that yields the end-to-end metrics;
// trace runs the operations twice side by side, untraced and with the
// bench's own spans around each layer call, runs the layer probes, and
// fills the per-layer metrics, trace.overhead_share among them.
type workload interface {
	setup(seed int64) error
	run(d time.Duration) (*result, error)
	trace(d time.Duration, tr *tracer, out map[string]float64) (*result, error)
	// sizes describes the generated inputs for the environment header.
	sizes() string
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "opt-fig4":
		return &optFig4{}, nil
	case "opt-budgeted":
		return &optBudgeted{}, nil
	case "exec-analytic":
		return newAnalytic(), nil
	case "point-hot":
		return newPointHot(), nil
	case "point-churn":
		return newPointChurn(), nil
	case "serve-open":
		return &serveOpen{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is what one pass over a workload measured.
type result struct {
	attempted int
	failed    int
	problems  []string // the first few failures, for the report

	opMS []float64     // wall time of every timed operation
	okay int           // correct operations that count toward throughput
	busy time.Duration // the time those operations took (closed loop)

	ratioSum float64 // plan cost / reference cost, summed over ratioN operations
	ratioN   int

	rssMB float64 // peak resident memory of the process under test

	// marks cut an in-process run into slices of equal composition; the
	// end-to-end metrics are medians over the slices, so that a burst of
	// interference from outside moves one slice and not the run.
	marks []mark
	// e2e holds end-to-end values a workload computed itself (serve-open
	// measures them in separate phases against another process).
	e2e map[string]float64
}

// mark is the state of a run at a slice boundary.
type mark struct {
	ops   int // len(opMS)
	okay  int
	busy  time.Duration
	cpu   time.Duration // of this process
	alloc uint64        // bytes allocated by this process
}

// cut closes the current slice.
func (r *result) cut() {
	r.marks = append(r.marks, mark{len(r.opMS), r.okay, r.busy, selfCPU(), totalAlloc()})
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// overheadShare is how much slower the traced operations' median is
// than the untraced ones', for two separate passes.
func overheadShare(untraced, traced *result) float64 {
	base := percentile(untraced.opMS, 0.5)
	return ratio(percentile(traced.opMS, 0.5)-base, base)
}

// pairedOverheadShare is the same for operations that ran in pairs, the
// i-th untraced beside the i-th traced: the median of the pairs'
// relative differences. The workloads mix operations of very different
// cost, and the median of such a mix moves by more than the overhead
// when two passes split a cluster differently; a pair compares an
// operation with itself.
func pairedOverheadShare(untraced, traced *result) float64 {
	var rel []float64
	for i := 0; i < len(untraced.opMS) && i < len(traced.opMS); i++ {
		rel = append(rel, ratio(traced.opMS[i]-untraced.opMS[i], untraced.opMS[i]))
	}
	return median(rel)
}

// merge folds another pass's counts into r (latency samples excluded).
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, p := range o.problems {
		if len(r.problems) < 5 {
			r.problems = append(r.problems, p)
		}
	}
}

// sliced runs op(0), op(1), ... as a timed run: it samples resident
// memory, cuts a slice every sliceOps operations, and stops at the first
// slice boundary after d.
func sliced(r *result, d time.Duration, sliceOps int, op func(i int)) {
	rss := startRSSSampler()
	r.cut()
	start := time.Now()
	for i := 0; ; i++ {
		op(i)
		if (i+1)%sliceOps == 0 {
			r.cut()
			if time.Since(start) >= d {
				break
			}
		}
	}
	r.rssMB = rss.finish()
}

// sliceMedians reduces a run to the median over its slices of each
// per-slice statistic.
func sliceMedians(r *result) map[string]float64 {
	var p50, p95, tput, cpu, alloc []float64
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		n := float64(b.okay - a.okay)
		if b.ops == a.ops || n == 0 {
			continue
		}
		p50 = append(p50, percentile(r.opMS[a.ops:b.ops], 0.50))
		p95 = append(p95, percentile(r.opMS[a.ops:b.ops], 0.95))
		tput = append(tput, ratio(n, (b.busy-a.busy).Seconds()))
		cpu = append(cpu, ms(b.cpu-a.cpu)/n)
		alloc = append(alloc, float64(b.alloc-a.alloc)/1024/n)
	}
	return map[string]float64{
		"op_p50_ms":       median(p50),
		"op_p95_ms":       median(p95),
		"ops_per_s":       median(tput),
		"cpu_ms_per_op":   median(cpu),
		"alloc_kb_per_op": median(alloc),
	}
}

// endToEnd derives the end-to-end metrics from a timed run.
func endToEnd(r *result, setupS float64) map[string]float64 {
	values := sliceMedians(r)
	values["setup_s"] = setupS
	values["plan_cost_ratio"] = ratio(r.ratioSum, float64(r.ratioN))
	values["peak_rss_mb"] = r.rssMB
	for name, v := range r.e2e {
		values[name] = v
	}
	return values
}

// medianUS is the median duration of the spans of one name.
func medianUS(lt layerTimes, name string) float64 { return median(lt.durations[name]) }

// selfSumShare is the share of the traced operations' wall time that
// the named layers' self times account for.
func selfSumShare(lt layerTimes, root string, layers ...string) float64 {
	total := 0.0
	for _, d := range lt.durations[root] {
		total += d
	}
	sum := 0.0
	for _, l := range layers {
		sum += lt.self[l]
	}
	return ratio(sum, total)
}
