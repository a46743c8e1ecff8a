package vdb_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/load"
	"repro/internal/rel"
	"repro/internal/vdb"
)

// openHotDB opens the repository benchmark's point-hot database: six
// 5 000-row tables R1..R6 with the generator's column layout, seed 1993,
// guided search and a plan cache large enough for every statement.
func openHotDB(tb testing.TB) *vdb.DB {
	tb.Helper()
	const rows = 5000
	cat := rel.NewCatalog()
	for i := 1; i <= 6; i++ {
		t := cat.AddTable("R"+strconv.Itoa(i), rows, datagen.TableRowBytes)
		cat.AddColumn(t, "id", rows, 1, rows)
		cat.AddColumn(t, "ja", rows/6, 1, rows/6)
		cat.AddColumn(t, "jb", rows/12, 1, rows/12)
		cat.AddColumn(t, "v", 1000, 0, 999)
	}
	return vdb.Open(cat, datagen.New(1993).Rows(cat), &vdb.Options{Guided: true, CacheBytes: 4 << 20})
}

// hitKind names a point-hot statement's latency cluster.
func hitKind(sql string) string {
	switch {
	case strings.Contains(sql, "GROUP BY"):
		return "group"
	case strings.Contains(sql, "ORDER BY"):
		return "order"
	}
	return "small"
}

// TestServedHitAllocs caps the bytes one served plan-cache hit allocates,
// parse to result, per kind of point-hot statement: the largest of the
// kind's per-statement means, 10% above what it measures with pooled
// batch header vectors and arenas sized to their rows (small selections
// 9.6 KiB, ORDER BY 208.6 KiB, GROUP BY 34.8 KiB). The small selections'
// ceiling is restated at 10% above 7.9 KiB, what they measure since
// Parse lends the lexer its token vector (ORDER BY and GROUP BY then
// read 206.9 and 33.1 KiB). Before, with header vectors grown by append
// in every operator, full-batch arenas, a keyword test that uppercased
// every identifier and a column map per plan node, they measured 28.6,
// 331.4 and 81.9 KiB.
func TestServedHitAllocs(t *testing.T) {
	if poolsDrop {
		t.Skip("sync.Pool does not keep what it is given")
	}
	db := openHotDB(t)
	query := func(s load.Statement) {
		var err error
		if len(s.Params) > 0 {
			_, err = db.QueryParamsCtx(context.Background(), s.SQL, s.Params...)
		} else {
			_, err = db.QueryCtx(context.Background(), s.SQL)
		}
		if err != nil {
			t.Fatalf("%s: %v", s.SQL, err)
		}
	}
	stmts := load.ChainWorkload(6, 16)
	for _, s := range stmts {
		query(s) // plan it and fill the pools
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ceiling := map[string]float64{"small": 8.7, "order": 229.5, "group": 38.3} // KiB
	worst := map[string]float64{}
	const runs = 10
	for _, s := range stmts {
		query(s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			query(s)
		}
		runtime.ReadMemStats(&after)
		k := hitKind(s.SQL)
		worst[k] = max(worst[k], float64(after.TotalAlloc-before.TotalAlloc)/runs/1024)
	}
	for _, k := range []string{"small", "order", "group"} {
		t.Logf("%s: %.1f KiB per statement, ceiling %.1f", k, worst[k], ceiling[k])
		if worst[k] > ceiling[k] {
			t.Errorf("a served %s hit allocates %.1f KiB, ceiling %.1f", k, worst[k], ceiling[k])
		}
	}
}
