package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
)

// keyForms returns the two ways a build side names its keys — a plain
// vector and a vector read through row indexes — over the same key
// sequence.
func keyForms(keys []int64) map[string]joinKeys {
	n := len(keys)
	// The indirect form reads keys from a shuffled column.
	perm := rand.New(rand.NewSource(int64(n))).Perm(n)
	col := make([]int64, n)
	sel := make([]int32, n)
	for i, k := range keys {
		col[perm[i]], sel[i] = k, int32(perm[i])
	}
	return map[string]joinKeys{
		"vector":   {col: keys, n: n},
		"indirect": {col: col, sel: sel, n: n},
	}
}

// checkChains asserts that probing t with every probe key lists the
// probe rows whose key some build row holds, ascending, and that walking
// chain from each hit's head yields exactly the build rows holding its
// key, newest first.
func checkChains(t *testing.T, what string, tab joinTable, chain []int32, keys, probes []int64) {
	t.Helper()
	want := map[int64][]int32{}
	for i := len(keys) - 1; i >= 0; i-- {
		want[keys[i]] = append(want[keys[i]], int32(i))
	}
	rows, heads := make([]int32, len(probes)), make([]int32, len(probes))
	n := tab.probeHits(probes, nil, rows, heads)
	var wantRows []int32
	for i, k := range probes {
		if want[k] != nil {
			wantRows = append(wantRows, int32(i))
		}
	}
	if !slices.Equal(rows[:n], wantRows) {
		t.Fatalf("%s: probe rows %v hit, want %v", what, rows[:n], wantRows)
	}
	for h, i := range rows[:n] {
		var got []int32
		for r := heads[h]; r >= 0; r = chain[r] {
			got = append(got, r)
		}
		if k := probes[i]; !slices.Equal(got, want[k]) {
			t.Fatalf("%s: key %d resolves to rows %v, want %v", what, k, got, want[k])
		}
	}
}

// TestJoinTableLayoutsAgree: the dense and the hashed layout, built over
// any of the three key forms, resolve every probe key to the same chain
// — the build rows holding it, newest first — and so do the tables
// buildJoinTable picks.
func TestJoinTableLayoutsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	draw := func(n int, f func() int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = f()
		}
		return ks
	}
	cases := map[string][]int64{
		"dense":           draw(2000, func() int64 { return rng.Int63n(3000) }),
		"sparse":          draw(500, func() int64 { return rng.Int63() - math.MaxInt64/2 }),
		"negative":        draw(700, func() int64 { return -rng.Int63n(900) - 50 }),
		"duplicate-heavy": draw(3000, func() int64 { return 100 + 7*rng.Int63n(12) }),
		"single-key":      draw(40, func() int64 { return 42 }),
		"one-row":         {-5},
		"empty":           nil,
	}
	for name, keys := range cases {
		probes := append(slices.Clone(keys), math.MinInt64, math.MaxInt64, 0, -1)
		for range 200 {
			probes = append(probes, rng.Int63n(4000)-1000)
		}
		for form, ks := range keyForms(keys) {
			what := name + "/" + form
			chain := make([]int32, len(keys))

			picked := buildJoinTable(ks, chain, 0)
			checkChains(t, what+"/picked", picked, chain, keys, probes)
			picked.release()

			if len(keys) == 0 {
				checkChains(t, what+"/dense", joinTable{}, chain, keys, probes)
				continue
			}
			lo, hi := slices.Min(keys), slices.Max(keys)
			hashed := hashedJoinTable(ks, chain, 1+len(keys)/4, lo, hi)
			checkChains(t, what+"/hashed", hashed, chain, keys, probes)
			hashed.release()

			if uint64(hi)-uint64(lo) < 1<<16 {
				dense := denseJoinTable(ks, chain, lo, hi)
				checkChains(t, what+"/dense", dense, chain, keys, probes)
				dense.release()
			}
		}
	}
}

// TestJoinTableMissesOutsideRange: either layout answers -1 for any key
// outside [min, max], including keys whose offset from min wraps.
func TestJoinTableMissesOutsideRange(t *testing.T) {
	for _, tc := range []struct {
		keys   []int64
		hashed bool
	}{
		{[]int64{10, 12, 15, 20}, false},
		{[]int64{-3, -1, 0, 2}, false},
		{[]int64{math.MaxInt64 - 2, math.MaxInt64}, false},
		{[]int64{math.MinInt64, math.MinInt64 + 3}, false},
		{[]int64{-1 << 40, 7, 1 << 40}, true},
		{[]int64{math.MaxInt64 - 1<<40, math.MaxInt64}, true},
	} {
		keys := tc.keys
		chain := make([]int32, len(keys))
		tab := buildJoinTable(joinKeys{col: keys, n: len(keys)}, chain, 0)
		if hashed := tab.slots != nil; hashed != tc.hashed {
			t.Fatalf("keys %v: hashed layout %v, want %v", keys, hashed, tc.hashed)
		}
		lo, hi := slices.Min(keys), slices.Max(keys)
		var outside []int64
		for _, k := range []int64{lo - 1, hi + 1, lo - 1<<32, hi + 1<<32, math.MinInt64, math.MaxInt64, 0} {
			if k < lo || k > hi {
				outside = append(outside, k)
			}
		}
		rows, heads := make([]int32, len(outside)), make([]int32, len(outside))
		if n := tab.probeHits(outside, nil, rows, heads); n != 0 {
			t.Fatalf("keys %v: probe %d outside the range hit row %d", keys, outside[rows[0]], heads[0])
		}
		checkChains(t, "in range", tab, chain, keys, keys)
		tab.release()
	}
}

// TestJoinTableExtremeKeysTakeHashed: keys spanning the whole int64
// range take the hashed layout — the range is computed without overflow
// — and still resolve.
func TestJoinTableExtremeKeysTakeHashed(t *testing.T) {
	keys := []int64{math.MinInt64, math.MaxInt64, math.MinInt64}
	chain := make([]int32, len(keys))
	tab := buildJoinTable(joinKeys{col: keys, n: len(keys)}, chain, 0)
	defer tab.release()
	if tab.slots == nil {
		t.Fatal("keys {MinInt64, MaxInt64} took the dense layout")
	}
	checkChains(t, "extreme", tab, chain, keys, []int64{math.MinInt64, math.MaxInt64, 0, -1, 1})
}

// sparseJoinDB returns a database of two tables whose id columns hold
// multiples of 1 000 003, too sparse for the dense layout, and the
// logical join of the two on id.
func sparseJoinDB(t *testing.T) (*DB, *core.ExprTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(1_000_003))
	cat := rel.NewCatalog()
	data := map[string][][]int64{}
	var ids [2]rel.ColID
	for i, name := range []string{"S", "T"} {
		const n = 600
		tab := cat.AddTable(name, n, 16)
		ids[i] = cat.AddColumn(tab, "id", n/2, 0, n*1_000_003)
		cat.AddColumn(tab, "v", 50, 0, 49)
		rows := make([][]int64, n)
		for j := range rows {
			rows[j] = []int64{rng.Int63n(n) * 1_000_003, rng.Int63n(50)}
		}
		data[name] = rows
	}
	tree := &core.ExprTree{Op: rel.NewJoin(ids[0], ids[1]), Children: []*core.ExprTree{
		{Op: &rel.Get{Tab: cat.Table("S")}},
		{Op: &rel.Get{Tab: cat.Table("T")}},
	}}
	return FromData(cat, data), tree
}

// TestSparseKeyJoinsMatchReference is the hashed layout's end-to-end
// coverage: the hash join over a sparse join column takes it and agrees
// with the reference evaluator.
func TestSparseKeyJoinsMatchReference(t *testing.T) {
	db, tree := sparseJoinDB(t)
	want, wantSchema, err := Reference(db, tree)
	if err != nil {
		t.Fatal(err)
	}
	s, tt := db.Table("S"), db.Table("T")
	out := joined(s.Schema, tt.Schema)
	// Built in place from a scan, and copied from a row iterator.
	scans := NewColHashJoin(NewColScan(s), NewColScan(tt), s.Schema, tt.Schema, 0, 0, nil)
	rows := NewColHashJoin(iterOf(storedRows(s)...), iterOf(storedRows(tt)...), s.Schema, tt.Schema, 0, 0, nil)
	for _, tc := range []struct {
		name string
		join Iterator
		head *joinTable
	}{{"scans", scans, &scans.head}, {"rows", rows, &rows.head}} {
		if err := tc.join.Open(); err != nil {
			t.Fatal(err)
		}
		if tc.head.slots == nil {
			t.Fatalf("%s: sparse keys took the dense layout", tc.name)
		}
		var got []Row
		for {
			b, ok, err := tc.join.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, row := range b.Rows {
				got = append(got, slices.Clone(row))
			}
		}
		if err := tc.join.Close(); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("the reference join is empty")
		}
		if Fingerprint(Canonical(got, out)) != Fingerprint(Canonical(want, wantSchema)) {
			t.Fatalf("%s: %d rows differ from the reference's %d", tc.name, len(got), len(want))
		}
	}
}

// BenchmarkJoinTableLayouts builds and probes each layout. The ratio
// cases build rows distinct keys spanning ratio × rows values and probe
// every build row's worth of keys drawn from the same range (a hit rate
// of 1/ratio): they measure whether speed or memory bounds denseRatio.
// The tiny cases build 16 or 44 keys over 810 values and probe 5 000
// keys drawn from 5 000 values, so the range check rejects 84% of them:
// point-hot's small selections, which take the dense layout by
// denseFloor. DESIGN §4i keeps the table.
func BenchmarkJoinTableLayouts(b *testing.B) {
	run := func(name string, keys []int64, span int64, probes []int64, withDense bool) {
		chain := make([]int32, len(keys))
		rows, heads := make([]int32, len(probes)), make([]int32, len(probes))
		ks := joinKeys{col: keys, n: len(keys)}
		for _, layout := range []string{"dense", "hashed"} {
			if layout == "dense" && !withDense {
				continue
			}
			b.Run(name+"/"+layout, func(b *testing.B) {
				for range b.N {
					var tab joinTable
					if layout == "dense" {
						tab = denseJoinTable(ks, chain, 0, span-1)
					} else {
						tab = hashedJoinTable(ks, chain, len(keys), 0, span-1)
					}
					tab.probeHits(probes, nil, rows, heads)
					tab.release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/row")
			})
		}
	}
	// draw returns n distinct keys below span and probes keys below
	// probeSpan.
	draw := func(seed int64, n int, span int64, probes int, probeSpan int64) ([]int64, []int64) {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, n)
		for i, p := range rng.Perm(int(span))[:n] {
			keys[i] = int64(p)
		}
		ps := make([]int64, probes)
		for i := range ps {
			ps[i] = rng.Int63n(probeSpan)
		}
		return keys, ps
	}
	for _, rows := range []int{5000, 200000} {
		for _, ratio := range []int{1, 2, 4, 8, 16, 64} {
			span := int64(rows * ratio)
			keys, probes := draw(span, rows, span, rows, span)
			run(fmt.Sprintf("rows=%d/ratio=%d", rows, ratio), keys, span, probes, ratio <= 16)
		}
	}
	for _, n := range []int{16, 44} {
		keys, probes := draw(int64(n), n, 810, 5000, 5000)
		run(fmt.Sprintf("tiny/keys=%d/span=810", n), keys, 810, probes, true)
	}
}
