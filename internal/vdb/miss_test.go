package vdb_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vdb"
)

// churnSQL spells one point-churn statement shape over the chain
// R1 ⋈ … ⋈ Rk (ja = id): "project", "order", "group", or "param" (a
// projection whose first-table selection is the parameter $1).
func churnSQL(k int, shape string) string {
	from, where := "R1", ""
	for j := 2; j <= k; j++ {
		from += fmt.Sprintf(", R%d", j)
		where += fmt.Sprintf("R%d.ja = R%d.id AND ", j-1, j)
	}
	where += fmt.Sprintf("R%d.v < 500 AND R1.v < ", k)
	switch shape {
	case "project":
		return fmt.Sprintf("SELECT R1.id FROM %s WHERE %s30", from, where)
	case "order":
		return fmt.Sprintf("SELECT R1.id, R1.v FROM %s WHERE %s30 ORDER BY R1.id", from, where)
	case "group":
		return fmt.Sprintf("SELECT R1.ja, COUNT(*) FROM %s WHERE %s30 GROUP BY R1.ja", from, where)
	}
	return fmt.Sprintf("SELECT R1.id FROM %s WHERE %s$1", from, where)
}

// openMissDB opens a four-table database the way volcano-serve does
// (guided search) but with the plan cache off, so every PrepareCtx is a
// miss: one optimization, or one dynamic-plan sweep.
func openMissDB(tb testing.TB) *vdb.DB {
	tb.Helper()
	src := datagen.New(31)
	cat := src.Catalog(4)
	return vdb.Open(cat, src.Rows(cat), &vdb.Options{Guided: true})
}

// TestServedMissAllocs caps the allocations of one served plan-cache
// miss about 10% above what it measures with one search per miss (1 482
// and 3 040): the GROUP BY chain runs no syntactic seed pass, and the
// parameterized chain's sweep inserts once and re-costs only what each
// bucket's assumption reaches. With a scratch seed optimization, a model
// per optimization and a fresh memo per bucket they took 2 199 and
// 4 254. The parameterized chain's ceiling is 10% above 1 784, measured
// once its sweep ran on the database's model instead of building one per
// miss (1 943).
func TestServedMissAllocs(t *testing.T) {
	if poolsDrop {
		t.Skip("sync.Pool does not keep what it is given")
	}
	db := openMissDB(t)
	for _, c := range []struct {
		sql     string
		ceiling float64
	}{
		{churnSQL(4, "group"), 1630},
		{churnSQL(3, "param"), 1965},
	} {
		n := testing.AllocsPerRun(5, func() {
			if _, err := db.PrepareCtx(context.Background(), c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.ceiling {
			t.Errorf("%s: a served miss allocates %.0f times, ceiling %.0f", c.sql, n, c.ceiling)
		}
	}
}

// BenchmarkServedMiss measures cold PrepareCtx misses over the
// point-churn shapes: chains of 2–4 tables under a projection, an ORDER
// BY, a GROUP BY and a parameter, one optimization or sweep each.
func BenchmarkServedMiss(b *testing.B) {
	db := openMissDB(b)
	var sqls []string
	for k := 2; k <= 4; k++ {
		for _, shape := range []string{"project", "order", "group", "param"} {
			sqls = append(sqls, churnSQL(k, shape))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PrepareCtx(context.Background(), sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
}
