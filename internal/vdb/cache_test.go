package vdb_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/vdb"
)

// cacheQueries is a mixed workload: scans, joins, aggregates, set
// operations, and ORDER BY variants.
var cacheQueries = []string{
	"SELECT R1.id, R1.ja FROM R1 WHERE R1.v < 500 ORDER BY R1.ja",
	"SELECT R1.id, R1.ja, R2.v FROM R1, R2 WHERE R1.ja = R2.ja ORDER BY R1.ja",
	"SELECT R1.ja, COUNT(*) FROM R1, R2 WHERE R1.ja = R2.ja GROUP BY R1.ja",
	"SELECT R1.id FROM R1, R2, R3 WHERE R1.ja = R2.ja AND R2.jb = R3.jb",
	"SELECT id FROM R1 WHERE v < 100 UNION SELECT id FROM R1 WHERE v > 900 ORDER BY id",
	"SELECT R2.id FROM R2 ORDER BY R2.id",
}

// TestCachedPlanCostsMatchUncached is the serving-layer property test:
// for every query, a cache-enabled database must produce a plan with
// exactly the cost a cache-disabled database produces — on the cold
// miss, on the warm hit, and again after a catalog version bump.
func TestCachedPlanCostsMatchUncached(t *testing.T) {
	src := datagen.New(31)
	cat := src.Catalog(3)
	data := src.Rows(cat)
	plain := vdb.Open(cat, data, nil)
	cached := vdb.Open(cat, data, &vdb.Options{CacheBytes: 1 << 20})

	costs := make(map[string]core.Cost)
	for _, sql := range cacheQueries {
		st, err := plain.Prepare(sql)
		if err != nil {
			t.Fatalf("uncached %q: %v", sql, err)
		}
		costs[sql] = st.Plan().Cost
	}

	check := func(phase string, wantCached bool) {
		t.Helper()
		for _, sql := range cacheQueries {
			st, err := cached.Prepare(sql)
			if err != nil {
				t.Fatalf("%s %q: %v", phase, sql, err)
			}
			if st.Plan().Cost != costs[sql] {
				t.Errorf("%s %q: cost %v, want %v", phase, sql, st.Plan().Cost, costs[sql])
			}
			if st.Cached() != wantCached {
				t.Errorf("%s %q: Cached() = %v, want %v", phase, sql, st.Cached(), wantCached)
			}
		}
	}
	check("cold", false)
	check("warm", true)

	// A catalog version bump changes every fingerprint: the warm entries
	// stop being served and re-optimization still lands on equal costs.
	cat.BumpVersion()
	check("post-bump cold", false)
	check("post-bump warm", true)

	ct := cached.PlanCache().Counters()
	if ct.CacheHits != int64(2*len(cacheQueries)) {
		t.Errorf("CacheHits = %d, want %d", ct.CacheHits, 2*len(cacheQueries))
	}
	if ct.CacheMisses != int64(2*len(cacheQueries)) {
		t.Errorf("CacheMisses = %d, want %d", ct.CacheMisses, 2*len(cacheQueries))
	}
}

func TestCacheMergesCommutedSpellings(t *testing.T) {
	src := datagen.New(31)
	cat := src.Catalog(3)
	db := vdb.Open(cat, src.Rows(cat), &vdb.Options{CacheBytes: 1 << 20})

	first, err := db.Prepare("SELECT R1.id FROM R1, R2 WHERE R1.ja = R2.ja")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached() {
		t.Fatal("first spelling served from an empty cache")
	}
	// The commuted FROM order is the same canonical query.
	second, err := db.Prepare("SELECT R1.id FROM R2, R1 WHERE R2.ja = R1.ja")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() {
		t.Fatal("commuted spelling missed the cache")
	}
	if first.Plan().Cost != second.Plan().Cost {
		t.Fatalf("costs diverge: %v vs %v", first.Plan().Cost, second.Plan().Cost)
	}
}

func TestCacheServesQueryAndExplain(t *testing.T) {
	src := datagen.New(31)
	cat := src.Catalog(3)
	db := vdb.Open(cat, src.Rows(cat), &vdb.Options{CacheBytes: 1 << 20})
	const sql = "SELECT R1.id, R1.ja FROM R1 WHERE R1.v < 500 ORDER BY R1.ja"

	cold, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first execution reported a cache hit")
	}
	warm, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second execution missed the cache")
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Fatalf("cached plan returned %d rows, fresh returned %d", len(warm.Rows), len(cold.Rows))
	}
	if warm.Plan.Cost != cold.Plan.Cost {
		t.Fatalf("cached cost %v != fresh cost %v", warm.Plan.Cost, cold.Plan.Cost)
	}

	exp, err := db.ExplainCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if text := exp.PlanText; !strings.HasPrefix(text, "-- cached\n") {
		t.Fatalf("explain of a cached query lacks the cache note:\n%s", text)
	}
}

func TestCacheParameterizedByShape(t *testing.T) {
	src := datagen.New(31)
	cat := src.Catalog(3)
	db := vdb.Open(cat, src.Rows(cat), &vdb.Options{CacheBytes: 1 << 20})
	const sql = "SELECT R1.id, R1.jb, R2.v FROM R1, R2 WHERE R1.jb = R2.jb AND R1.v < $1 ORDER BY R1.jb"

	first, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached() {
		t.Fatal("first prepare of the shape was served from the cache")
	}
	second, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() {
		t.Fatal("second prepare of the same shape missed the cache")
	}
	if second.Dynamic() != first.Dynamic() {
		t.Fatal("cached statement lost its dynamic-plan flag")
	}
	// The cached dynamic plan still adapts to the bound value.
	low, err := second.Exec(10)
	if err != nil {
		t.Fatal(err)
	}
	high, err := second.Exec(990)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Rows) >= len(high.Rows) {
		t.Fatalf("cached dynamic plan ignored selectivity: %d vs %d rows", len(low.Rows), len(high.Rows))
	}
}

func TestDegradedPlansNeverCached(t *testing.T) {
	src := datagen.New(31)
	cat := src.Catalog(3)
	opts := &vdb.Options{CacheBytes: 1 << 20, Guided: true}
	opts.Search.Budget = core.Budget{MaxSteps: 1}
	db := vdb.Open(cat, src.Rows(cat), opts)
	const sql = "SELECT R1.id FROM R1, R2, R3 WHERE R1.ja = R2.ja AND R2.jb = R3.jb"

	for i := 0; i < 2; i++ {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		if st.Result().StopReason == nil {
			t.Fatalf("prepare %d: expected a budget-degraded plan", i)
		}
		if st.Cached() {
			t.Fatalf("prepare %d: degraded plan was served from the cache", i)
		}
	}
	if ct := db.PlanCache().Counters(); ct.Entries != 0 {
		t.Fatalf("degraded plans were inserted: %+v", ct)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	db := openDemo(t)
	if db.PlanCache() != nil {
		t.Fatal("plan cache enabled without CacheBytes")
	}
	st, err := db.Prepare("SELECT R2.id FROM R2 ORDER BY R2.id")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := db.Prepare("SELECT R2.id FROM R2 ORDER BY R2.id")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached() || st2.Cached() {
		t.Fatal("Cached() true with the cache disabled")
	}
}
