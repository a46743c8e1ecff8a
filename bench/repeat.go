package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// repeatAll runs every workload (or only the named one) n times, each
// run in a process of its own as the driver runs them, and prints per
// workload and end-to-end metric the median, the quartiles, and the
// spread (interquartile distance over the median) against the metric's
// bound. This is how the bounds and the run length were fixed; its
// output for a commit is that commit's baseline. By default run i uses
// seed+i, which is what the acceptance check of the benchmark does; the
// spread then includes how much the generated inputs differ.
func repeatAll(n int, seed int64, seconds int, fixedSeed bool, only string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seeds := "seeds " + fmt.Sprintf("%d..%d", seed, seed+int64(n)-1)
	if fixedSeed {
		seeds = fmt.Sprintf("seed %d", seed)
	}
	fmt.Printf("# Baseline\n\n%d runs per workload, %s, %d s each, commit %s, %s, GOMAXPROCS %d, nproc %d.\n",
		n, seeds, seconds, gitSHA(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("Spread is (third quartile - first quartile) / median, by the method of Python's statistics.quantiles(n=4).\n")
	wide := 0
	for _, w := range workloadDefs {
		if only != "" && only != w.Name {
			continue
		}
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed
			if !fixedSeed {
				s += int64(i)
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, seed %d: %w\n%s", w.Name, s, err, out)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s, seed %d: unreadable result line: %w", w.Name, s, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s, seed %d: incorrect output (%d of %d failed)", w.Name, s, rep.Failed, rep.Attempted)
			}
			for name, v := range rep.Metrics {
				samples[name] = append(samples[name], v.Value)
			}
		}
		fmt.Printf("\n## %s\n\n| metric | unit | median | q1 | q3 | spread | bound | |\n|---|---|---|---|---|---|---|---|\n", w.Name)
		for _, m := range endToEndDefs {
			v := samples[m.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := ratio(q3-q1, med)
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated"
			case spread > m.Bound:
				verdict = "TOO WIDE"
				wide++
			case spread > m.Bound/3:
				verdict = "ok, above a third of the bound"
			}
			fmt.Printf("| `%s` | %s | %.6g | %.6g | %.6g | %.4f | %g | %s |\n", m.Name, m.Unit, med, q1, q3, spread, m.Bound, verdict)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metric(s) spread wider than their bound (%s)", wide, strings.TrimSpace(seeds))
	}
	return nil
}
