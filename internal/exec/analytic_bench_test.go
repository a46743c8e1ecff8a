package exec_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/load"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

// analyticQueries are the four statements of the repository benchmark's
// exec-analytic workload (bench/query.go), as SQL, so that sqlish lowers
// each two-sided range to the same stacked Filter nodes the daemon sees.
var analyticQueries = []struct{ name, sql string }{
	{"scan-filter", "SELECT * FROM R1 WHERE R1.v >= 250 AND R1.v < 750"},
	{"join2", "SELECT * FROM R1, R2 WHERE R1.ja = R2.ja " +
		"AND R1.v >= 350 AND R1.v < 650 AND R2.v >= 350 AND R2.v < 650"},
	{"join3-orderby", "SELECT * FROM R1, R2, R3 WHERE R1.ja = R2.ja AND R2.jb = R3.id " +
		"AND R1.v >= 350 AND R1.v < 650 AND R2.v >= 350 AND R2.v < 650 AND R3.v >= 350 AND R3.v < 650 ORDER BY R1.ja"},
	{"groupby", "SELECT R1.ja, COUNT(*), SUM(R1.v) FROM R1 WHERE R1.v >= 250 AND R1.v < 750 GROUP BY R1.ja"},
}

// analyticDB builds n tables R1..Rn of exactly rows rows with datagen's
// column layout, as the repository benchmark does.
func analyticDB(tb testing.TB, n int, rows int64) (*rel.Catalog, *exec.DB) {
	tb.Helper()
	cat := rel.NewCatalog()
	for i := 1; i <= n; i++ {
		t := cat.AddTable("R"+strconv.Itoa(i), rows, datagen.TableRowBytes)
		cat.AddColumn(t, "id", rows, 1, rows)
		cat.AddColumn(t, "ja", max(rows/6, 2), 1, max(rows/6, 2))
		cat.AddColumn(t, "jb", max(rows/12, 2), 1, max(rows/12, 2))
		cat.AddColumn(t, "v", 1000, 0, 999)
	}
	return cat, exec.FromData(cat, datagen.New(1993).Rows(cat))
}

// analyticPlan optimizes one statement as vdb does.
func analyticPlan(tb testing.TB, cat *rel.Catalog, sql string) *core.Plan {
	tb.Helper()
	parsed, err := sqlish.Parse(cat, sql)
	if err != nil {
		tb.Fatalf("parse %q: %v", sql, err)
	}
	opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
	plan, err := opt.OptimizeCtx(context.Background(), opt.InsertQuery(parsed.Tree), parsed.Required)
	if err != nil || plan == nil {
		tb.Fatalf("optimize %q: %v", sql, err)
	}
	return plan
}

// BenchmarkAnalyticPlans runs exec-analytic's four plans at its table
// size, under the default build and under the NoFusion row kernels.
func BenchmarkAnalyticPlans(b *testing.B) {
	cat, db := analyticDB(b, 3, 200000)
	for _, q := range analyticQueries {
		plan := analyticPlan(b, cat, q.sql)
		for _, cfg := range []struct {
			name string
			opts exec.Options
		}{{"default", exec.Options{}}, {"rowkernels", exec.Options{NoFusion: true}}} {
			b.Run(q.name+"/"+cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, _, err := exec.RunOpts(context.Background(), db, plan, nil, cfg.opts)
					if err != nil {
						b.Fatal(err)
					}
					sinkRows = len(rows)
				}
			})
		}
	}
}

// BenchmarkPointPlans runs the chain statements of the point workloads'
// mix (load.ChainWorkload) over their six 5 000-row tables: the GROUP BY
// and ORDER BY chains over two and four tables, whose joins projection
// pushdown at build narrows, and the small selections (R1.v < c) over
// two, three and four tables, point-hot's median statements, whose
// joins build on a few dozen rows and probe whole tables.
func BenchmarkPointPlans(b *testing.B) {
	cat, db := analyticDB(b, 6, 5000)
	seen := map[string]bool{}
	for _, st := range load.ChainWorkload(6, 16) {
		kind := "select"
		switch {
		case st.Params != nil:
			continue
		case strings.Contains(st.SQL, "GROUP BY"):
			kind = "groupby"
		case strings.Contains(st.SQL, "ORDER BY"):
			kind = "orderby"
		}
		tables := strings.Count(st.SQL, " = R") + 1 // one equi-join per link
		name := kind + "/tables=" + strconv.Itoa(tables)
		if (tables == 3 && kind != "select") || seen[name] {
			continue
		}
		seen[name] = true
		plan := analyticPlan(b, cat, st.SQL)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, _, err := exec.RunOpts(context.Background(), db, plan, nil, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sinkRows = len(rows)
			}
		})
	}
}

var sinkRows int
