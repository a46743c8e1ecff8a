package fig4

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentsQuoteBenchJSON fails when EXPERIMENTS.md's Figure 4
// table or its work-space sentence disagrees with the committed
// BENCH_fig4.json. After `make fig4-json`, paste the table and figure the
// failure prints over the old ones.
func TestExperimentsQuoteBenchJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_fig4.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 || rep.Env.Commit == "" {
		t.Fatal("BENCH_fig4.json holds no levels or no environment")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if table := MarkdownTable(rep); !strings.Contains(string(doc), table) {
		t.Errorf("EXPERIMENTS.md's Figure 4 table does not match BENCH_fig4.json; want\n%s", table)
	}
	if ws := WorkSpace(rep); !strings.Contains(string(doc), ws) {
		t.Errorf("EXPERIMENTS.md's work-space sentence does not quote %q from BENCH_fig4.json", ws)
	}
}

// MarkdownTable renders the report's levels as EXPERIMENTS.md's Figure 4
// table.
func MarkdownTable(rep BenchReport) string {
	var b strings.Builder
	b.WriteString("| rels | volcano ms | exodus ms (±sd) | time ratio | plan-cost ratio (exodus/volcano) |\n")
	b.WriteString("|------|-----------:|----------------:|-----------:|---------------------------------:|\n")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "| %d | %.3f | %.3f ±%.3f | %.1f× | %.2f× |\n", p.Relations, p.VolcanoMS,
			p.ExodusMS, p.ExodusStdDevMS, p.ExodusMS/p.VolcanoMS, p.PlanQualityRatio)
	}
	return b.String()
}

// WorkSpace renders the report's largest level's mean memo size as
// EXPERIMENTS.md's work-space sentence quotes it.
func WorkSpace(rep BenchReport) string {
	p := rep.Points[len(rep.Points)-1]
	return fmt.Sprintf("%.0f KB mean at %d relations", float64(p.VolcanoMemBytes)/1000, p.Relations)
}
