package vdb_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/vdb"
)

func openDemo(t *testing.T) *vdb.DB {
	t.Helper()
	src := datagen.New(31)
	cat := src.Catalog(3)
	return vdb.Open(cat, src.Rows(cat), nil)
}

func openDemoCached(t *testing.T) *vdb.DB {
	t.Helper()
	src := datagen.New(31)
	cat := src.Catalog(3)
	return vdb.Open(cat, src.Rows(cat), &vdb.Options{CacheBytes: 1 << 20})
}

func TestQueryEndToEnd(t *testing.T) {
	db := openDemo(t)
	res, err := db.Query("SELECT R1.id, R1.ja FROM R1 WHERE R1.v < 500 ORDER BY R1.ja")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if len(res.Columns) != 2 || res.Columns[0] != "R1.id" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Stats.Exprs == 0 {
		t.Fatal("no search statistics recorded")
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1] > res.Rows[i][1] {
			t.Fatal("result not ordered")
		}
	}
}

func TestQueryJoinAggregates(t *testing.T) {
	db := openDemo(t)
	res, err := db.Query("SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no groups")
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1]
	}
	plain, err := db.Query("SELECT R1.id FROM R1, R2 WHERE R1.ja = R2.ja")
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(plain.Rows)) {
		t.Fatalf("grouped counts %d != join rows %d", total, len(plain.Rows))
	}
}

func TestPrepareDynamic(t *testing.T) {
	db := openDemo(t)
	stmt, err := db.Prepare("SELECT R1.id, R1.jb, R2.v FROM R1, R2 WHERE R1.jb = R2.jb AND R1.v < $1 ORDER BY R1.jb")
	if err != nil {
		t.Fatal(err)
	}
	low, err := stmt.Exec(10)
	if err != nil {
		t.Fatal(err)
	}
	high, err := stmt.Exec(990)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Rows) >= len(high.Rows) {
		t.Fatalf("selectivity did not change the result: %d vs %d", len(low.Rows), len(high.Rows))
	}
	if _, err := stmt.Exec(); err == nil {
		t.Fatal("missing parameter accepted")
	}
	if _, err := db.QueryParams("SELECT id FROM R1 WHERE v < $1", 250); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRejectsUnboundParams(t *testing.T) {
	db := openDemo(t)
	if _, err := db.Query("SELECT id FROM R1 WHERE v < $1"); err == nil {
		t.Fatal("Query accepted a parameterized statement")
	}
}

func TestExplain(t *testing.T) {
	db := openDemo(t)
	res, err := db.ExplainCtx(context.Background(), "SELECT R1.id, R1.ja, R2.v FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.ja")
	if err != nil {
		t.Fatal(err)
	}
	if plan := res.PlanText; !strings.Contains(plan, "join") || !strings.Contains(plan, "cost=") {
		t.Fatalf("explain output:\n%s", plan)
	}
}

// TestResultEnvelope: every entry point returns the same Result shape,
// with cost, timing, and serving markers filled consistently.
func TestResultEnvelope(t *testing.T) {
	db := openDemoCached(t)
	sql := "SELECT R1.id, R1.ja FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.ja"

	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost == nil || res.Plan == nil {
		t.Fatal("Query result missing plan or cost")
	}
	if res.Degraded || res.StopReason != nil || res.Cached {
		t.Fatalf("fresh unbudgeted query misreported: %+v", res)
	}
	if res.OptimizeTime <= 0 || res.ExecTime <= 0 {
		t.Fatalf("timings not recorded: optimize %v, exec %v", res.OptimizeTime, res.ExecTime)
	}

	exp, err := db.ExplainCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Cached {
		t.Fatal("explain after query not served from the plan cache")
	}
	if !strings.HasPrefix(exp.PlanText, "-- cached\n") {
		t.Fatalf("cached explain rendering:\n%s", exp.PlanText)
	}
	if len(exp.Rows) != 0 || exp.ExecTime != 0 {
		t.Fatal("explain executed the plan")
	}

	stmt, err := db.PrepareCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	pr := stmt.Result()
	if !pr.Cached || pr.Plan == nil || pr.Cost == nil {
		t.Fatalf("prepare envelope: %+v", pr)
	}
	run, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !run.Cached || len(run.Rows) == 0 || run.ExecTime <= 0 {
		t.Fatalf("exec envelope: cached=%v rows=%d exec=%v", run.Cached, len(run.Rows), run.ExecTime)
	}
}

// TestWithBudgetOverride: a context-carried budget degrades one
// request without touching the database's configured options, and the
// degraded plan still answers the query.
func TestWithBudgetOverride(t *testing.T) {
	db := openDemo(t)
	sql := "SELECT R1.id FROM R1, R2, R3 WHERE R1.ja = R2.ja AND R2.jb = R3.jb ORDER BY R1.id"
	ctx := vdb.WithBudget(context.Background(), core.Budget{MaxSteps: 1})
	res, err := db.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.StopReason == nil {
		t.Fatalf("MaxSteps:1 search not reported degraded: %+v", res.Stats.StopReason)
	}
	if len(res.Rows) == 0 {
		t.Fatal("degraded query returned no rows")
	}
	full, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded {
		t.Fatal("budget override leaked into an unbudgeted query")
	}
	if len(full.Rows) != len(res.Rows) {
		t.Fatalf("degraded plan changed the result: %d vs %d rows", len(res.Rows), len(full.Rows))
	}
}

func TestSearchOptionsPropagate(t *testing.T) {
	src := datagen.New(32)
	cat := src.Catalog(2)
	traced := false
	db := vdb.Open(cat, src.Rows(cat), &vdb.Options{
		Search: core.Options{Trace: core.TraceOptions{
			Tracer: core.ClassicTracer(func(string) { traced = true }),
		}},
	})
	if _, err := db.Query("SELECT id FROM R1"); err != nil {
		t.Fatal(err)
	}
	if !traced {
		t.Fatal("trace option not propagated")
	}
}

func TestErrors(t *testing.T) {
	db := openDemo(t)
	for _, sql := range []string{
		"SELECT nosuch FROM R1",
		"FROM R1",
		"SELECT id FROM R1, R2", // cartesian
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q) succeeded", sql)
		}
	}
	if _, err := db.Prepare("SELECT id FROM nosuch WHERE v < $1"); err == nil {
		t.Error("Prepare of invalid SQL succeeded")
	}
}

func TestUnionThroughFacade(t *testing.T) {
	db := openDemo(t)
	res, err := db.Query("SELECT id FROM R1 WHERE v < 100 UNION SELECT id FROM R1 WHERE v > 900 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i, r := range res.Rows {
		if seen[r[0]] {
			t.Fatal("duplicate in UNION")
		}
		seen[r[0]] = true
		if i > 0 && res.Rows[i-1][0] > r[0] {
			t.Fatal("not ordered")
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}
