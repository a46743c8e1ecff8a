package vdb_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/vdb"
)

// rowKey renders a row for order-insensitive multiset comparison.
func rowKey(r exec.Row) string { return fmt.Sprintf("%v", r) }

func sortedKeys(rows []exec.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// TestQueryBatchMatchesSingle: a batch of overlapping statements run
// through the shared memo and the Materialize/Reuse post-pass returns,
// per statement, exactly the rows the statement returns alone.
func TestQueryBatchMatchesSingle(t *testing.T) {
	db := openDemo(t)
	const chain = " FROM R1, R2, R3 WHERE R1.ja = R2.ja AND R2.jb = R3.jb AND R1.v < 100"
	for _, sqls := range [][]string{
		// Two statements are verbatim duplicates and two more share the
		// R1 ⋈ R2 join.
		{
			"SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja",
			"SELECT R1.id, R1.ja FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.id",
			"SELECT R1.id, R1.ja FROM R1 WHERE R1.v < 500 ORDER BY R1.ja",
			"SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja",
		},
		// One spooled R1 ⋈ R2 subtree, each statement reading different
		// columns of it: the spool holds every column, whatever the
		// statement that fills it reads.
		{
			"SELECT R1.id" + chain,
			"SELECT R2.v, R3.id" + chain,
			"SELECT R3.jb, SUM(R1.v), MAX(R2.id)" + chain + " GROUP BY R3.jb",
		},
	} {
		batch, err := db.QueryBatch(sqls)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Results) != len(sqls) {
			t.Fatalf("%d results for %d statements", len(batch.Results), len(sqls))
		}
		for i, sql := range sqls {
			solo, err := db.Query(sql)
			if err != nil {
				t.Fatalf("single statement %d: %v", i, err)
			}
			got, want := sortedKeys(batch.Results[i].Rows), sortedKeys(solo.Rows)
			if len(got) != len(want) {
				t.Fatalf("%q: %d rows in batch, %d alone", sql, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%q row %d: batch %q != solo %q", sql, j, got[j], want[j])
				}
			}
		}
		if batch.Stats.SharedGroups == 0 {
			t.Errorf("overlapping batch %q reports no shared groups", sqls)
		}
		if batch.Spools == 0 {
			t.Errorf("overlapping batch %q shares no spool", sqls)
		}
		for _, r := range batch.Results {
			if r.Degraded {
				t.Errorf("unbudgeted batch degraded: %v", r.StopReason)
			}
		}
	}
}

// TestQueryBatchBypassesPlanCache: batch plans are batch-relative (a
// Reuse node rescans a spool only its own batch fills), so QueryBatch
// must neither consult nor populate the plan cache — and must say so
// explicitly by reporting Cached false on every Result, even for a
// statement whose solo plan is already cached.
func TestQueryBatchBypassesPlanCache(t *testing.T) {
	db := openDemoCached(t)
	sql := "SELECT R1.id, R1.ja FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.id"
	// Warm the cache with the statement, solo.
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	warm, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("solo repeat not served from the plan cache")
	}
	before := db.PlanCache().Counters()
	batch, err := db.QueryBatch([]string{
		sql,
		"SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if r.Cached {
			t.Errorf("batch statement %d reports Cached despite the bypass", i)
		}
	}
	after := db.PlanCache().Counters()
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses || after.Entries != before.Entries {
		t.Errorf("batch touched the plan cache: before %+v, after %+v", before, after)
	}
}

// TestQueryBatchRejectsParams: batch statements must be fully
// specified — placeholders have no binding step in the batch API.
func TestQueryBatchRejectsParams(t *testing.T) {
	db := openDemo(t)
	_, err := db.QueryBatch([]string{"SELECT R1.id FROM R1 WHERE R1.v < ?"})
	if err == nil {
		t.Fatal("parameterized batch statement accepted")
	}
}

// TestQueryBatchRejectsStochasticPolicy: the batch drives every root
// through the exhaustive FindBestPlan, so a database configured with a
// stochastic search policy refuses a batch rather than silently
// ignoring the policy.
func TestQueryBatchRejectsStochasticPolicy(t *testing.T) {
	src := datagen.New(31)
	cat := src.Catalog(3)
	for _, pol := range []core.SearchPolicy{core.PolicyMCTS, core.PolicyWidening} {
		opts := &vdb.Options{}
		opts.Search.Search.Policy = pol
		db := vdb.Open(cat, src.Rows(cat), opts)
		_, err := db.QueryBatch([]string{
			"SELECT R1.id, R1.ja FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.id",
			"SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja",
		})
		if err == nil {
			t.Errorf("%v: batch accepted under a stochastic policy", pol)
		}
	}
}

// TestPrepareBatchPlansExecutable: PrepareBatch's plans execute against
// one shared spool store in statement order.
func TestPrepareBatchPlansExecutable(t *testing.T) {
	db := openDemo(t)
	sqls := []string{
		"SELECT R1.id, R1.ja FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.id",
		"SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja",
	}
	plans, batch, err := db.PrepareBatch(sqls)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(sqls) {
		t.Fatalf("%d plans for %d statements", len(plans), len(sqls))
	}
	if batch.Stats.SharedGroups == 0 {
		t.Error("overlapping prepare reports no shared groups")
	}
	for i, p := range plans {
		if p == nil {
			t.Fatalf("statement %d: nil plan", i)
		}
	}
}
