package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// kernelDB loads tables L and R from their join keys. Each has the
// columns ord (the row's position in its table), k (the key) and v (ord
// mod 3), so every joined row names the pair of rows it joins and an
// expected row order can be derived from the reference evaluator's.
type kernelDB struct {
	db     *DB
	l, r   *Table
	lk, rk rel.ColID
	rv     rel.ColID
	lget   *core.ExprTree
	rget   *core.ExprTree
}

func newKernelDB(lkeys, rkeys []int64) *kernelDB {
	cat := rel.NewCatalog()
	data := map[string][][]int64{}
	var cols [2][3]rel.ColID
	for i, keys := range [][]int64{lkeys, rkeys} {
		name := []string{"L", "R"}[i]
		n := int64(max(len(keys), 1))
		tab := cat.AddTable(name, n, 24)
		cols[i] = [3]rel.ColID{
			cat.AddColumn(tab, "ord", n, 0, n),
			cat.AddColumn(tab, "k", n, -1<<40, 1<<40),
			cat.AddColumn(tab, "v", 3, 0, 2),
		}
		rows := make([][]int64, len(keys))
		for j, k := range keys {
			rows[j] = []int64{int64(j), k, int64(j % 3)}
		}
		data[name] = rows
	}
	db := FromData(cat, data)
	return &kernelDB{
		db: db, l: db.Table("L"), r: db.Table("R"),
		lk: cols[0][1], rk: cols[1][1], rv: cols[1][2],
		lget: &core.ExprTree{Op: &rel.Get{Tab: cat.Table("L")}},
		rget: &core.ExprTree{Op: &rel.Get{Tab: cat.Table("R")}},
	}
}

// rFilter is the probe-side predicate of the filtered cases: it keeps
// two R rows in three, so the columnar probe batches carry a selection
// vector.
func (k *kernelDB) rFilter() rel.Pred { return rel.Pred{Col: k.rv, Op: rel.CmpLT, Val: 2} }

// reference evaluates L join R (R filtered when filtered is set) by
// definition: rows [L.ord, L.k, L.v, R.ord, R.k, R.v], L-major.
func (k *kernelDB) reference(t *testing.T, filtered bool) []Row {
	t.Helper()
	right := k.rget
	if filtered {
		right = &core.ExprTree{Op: &rel.Select{Pred: k.rFilter()}, Children: []*core.ExprTree{right}}
	}
	rows, _, err := Reference(k.db, &core.ExprTree{Op: rel.NewJoin(k.lk, k.rk), Children: []*core.ExprTree{k.lget, right}})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// drainRows runs an operator to its end, copying every row.
func drainRows(t *testing.T, it Iterator) []Row {
	t.Helper()
	var out []Row
	for _, r := range collectAll(t, it) {
		out = append(out, slices.Clone(r))
	}
	return out
}

// TestCompactedProbeMatchesReference runs the hash join, build side L
// and probe side R, over builds that take either key layout, with and
// without a probe-side filter (a selection vector), at a batch size of
// 8 and the default. The output must be the reference's rows in the
// hash join's order: probe rows ascending, and for each the build rows
// holding its key newest first.
func TestCompactedProbeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	draw := func(n int, f func(i int) int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = f(i)
		}
		return ks
	}
	const sparse = 1_000_003 // spreads keys past both dense bounds
	// edges makes the probe rows at the first and last position of every
	// 8-row batch hit key 5 (scaled) and every other probe row miss.
	edges := func(scale int64) []int64 {
		return draw(64, func(i int) int64 {
			if i%8 == 0 || i%8 == 7 {
				return 5 * scale
			}
			return (6 + int64(i)) * scale
		})
	}
	for _, tc := range []struct {
		name         string
		build, probe []int64
		hashed       bool
	}{
		{"dense", draw(300, func(int) int64 { return rng.Int63n(200) }), draw(2000, func(int) int64 { return rng.Int63n(300) - 50 }), false},
		{"hashed", draw(300, func(int) int64 { return rng.Int63n(400) * sparse }), draw(2000, func(int) int64 { return rng.Int63n(500) * sparse }), true},
		{"all-miss/dense", draw(200, func(i int) int64 { return 2 * int64(i) }), draw(1000, func(int) int64 { return 2*rng.Int63n(200) + 1 }), false},
		{"all-miss/hashed", draw(200, func(i int) int64 { return 2 * int64(i) * sparse }), draw(1000, func(int) int64 { return (2*rng.Int63n(200) + 1) * sparse }), true},
		{"all-hit/dense", draw(100, func(i int) int64 { return int64(i) - 40 }), draw(1000, func(int) int64 { return rng.Int63n(100) - 40 }), false},
		{"all-hit/hashed", draw(100, func(i int) int64 { return int64(i) * sparse }), draw(1000, func(int) int64 { return rng.Int63n(100) * sparse }), true},
		// A small selection: 16 keys over 810 values take the dense
		// layout only by its floor.
		{"tiny/dense", draw(16, func(int) int64 { return rng.Int63n(810) }), draw(5000, func(int) int64 { return rng.Int63n(5000) }), false},
		{"duplicate-heavy", draw(500, func(int) int64 { return []int64{3, 7, 11}[rng.Intn(3)] }), draw(300, func(int) int64 { return rng.Int63n(15) }), false},
		{"edges/dense", []int64{5, 2, 5}, edges(1), false},
		{"edges/hashed", []int64{5 * sparse, 2 * sparse, 5 * sparse}, edges(sparse), true},
	} {
		k := newKernelDB(tc.build, tc.probe)
		for _, filtered := range []bool{false, true} {
			want := k.reference(t, filtered)
			// The hash join's order: R.ord ascending, then L.ord descending.
			slices.SortStableFunc(want, func(a, b Row) int {
				return cmp.Or(cmp.Compare(a[3], b[3]), cmp.Compare(b[0], a[0]))
			})
			for _, size := range []int{8, DefaultBatchSize} {
				var probe Iterator = NewColScan(k.r)
				if filtered {
					probe = NewColFilter(probe, k.r.Schema, []rel.Pred{k.rFilter()})
				}
				j := NewColHashJoin(NewColScan(k.l), probe, k.l.Schema, k.r.Schema, 1, 1, nil)
				what := fmt.Sprintf("%s/filtered=%v/size=%d", tc.name, filtered, size)
				setBatchSize(j, size)
				if err := j.Open(); err != nil {
					t.Fatal(err)
				}
				if hashed := j.head.slots != nil; hashed != tc.hashed {
					t.Fatalf("%s: hashed layout %v, want %v", what, hashed, tc.hashed)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if err := sameRows(drainRows(t, j), want); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
	}
}

// setBatchSize sets the batch size of an operator and of its inputs.
func setBatchSize(it Iterator, size int) {
	if bs, ok := it.(batchSized); ok {
		bs.SetBatchSize(size)
	}
	switch op := it.(type) {
	case *ColHashJoin:
		setBatchSize(op.Left, size)
		setBatchSize(op.Right, size)
	case *MergeJoin:
		setBatchSize(op.Left, size)
		setBatchSize(op.Right, size)
	case *Sort:
		setBatchSize(op.In, size)
	case *ColFilter:
		setBatchSize(op.In, size)
	}
}

// TestKeyedMergeJoinMatchesReference runs the merge join over sorts of L
// and R on the key: single-run sorts, which hand it their sorted keys,
// multi-run sorts, which emit rows, and (when L is stored in key order)
// a plain scan, at batch sizes of 3 and the default. The output must be
// the reference's rows in the merge join's order: keys ascending, and
// each key's L rows and R rows in their input order, L-major.
func TestKeyedMergeJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4141))
	draw := func(n int, f func() int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = f()
		}
		return ks
	}
	sorted := draw(300, func() int64 { return rng.Int63n(60) })
	slices.Sort(sorted)
	for _, tc := range []struct {
		name string
		l, r []int64
		wide bool // the keys span 2^32 or more: the sort's fallback
	}{
		// Groups of about 5 and 7 rows: at a batch size of 3, every
		// group spans windows on both sides.
		{"duplicates", draw(300, func() int64 { return rng.Int63n(60) }), draw(420, func() int64 { return rng.Int63n(60) }), false},
		{"negative", draw(200, func() int64 { return rng.Int63n(200) - 150 }), draw(250, func() int64 { return -rng.Int63n(120) }), false},
		// L's keys span 2^41 and R's 9: one side takes the fallback.
		{"wide", draw(200, func() int64 { return []int64{-1 << 40, 0, 7, 1 << 40}[rng.Intn(4)] }), draw(200, func() int64 { return []int64{0, 3, 7, 9}[rng.Intn(4)] }), true},
		{"one-row", []int64{5}, draw(50, func() int64 { return rng.Int63n(10) }), false},
		{"empty-left", nil, draw(50, func() int64 { return rng.Int63n(10) }), false},
		{"empty-right", draw(50, func() int64 { return rng.Int63n(10) }), nil, false},
		{"stored-order", sorted, draw(300, func() int64 { return rng.Int63n(70) }), false},
	} {
		k := newKernelDB(tc.l, tc.r)
		want := k.reference(t, false)
		slices.SortStableFunc(want, func(a, b Row) int { return cmp.Compare(a[1], b[1]) })
		lorder := []relopt.OrderCol{{Col: k.lk}}
		rorder := []relopt.OrderCol{{Col: k.rk}}
		for _, size := range []int{3, DefaultBatchSize} {
			for _, form := range []string{"keyed", "runs", "scan"} {
				if form == "scan" && tc.name != "stored-order" {
					continue
				}
				ls, rs := NewSort(NewColScan(k.l), k.l.Schema, lorder), NewSort(NewColScan(k.r), k.r.Schema, rorder)
				if form == "runs" {
					ls.RunRows, rs.RunRows = 7, 11
				}
				var left Iterator = ls
				if form == "scan" {
					left = NewColScan(k.l)
				}
				m := NewMergeJoin(left, rs, k.l.Schema, k.r.Schema, 1, 1, nil)
				setBatchSize(m, size)
				what := fmt.Sprintf("%s/%s/size=%d", tc.name, form, size)
				if err := m.Open(); err != nil {
					t.Fatal(err)
				}
				// A sort is keyed when it holds one run: runs of 7 and 11
				// rows leave only short inputs so.
				lkeyed := form != "scan" && len(tc.l) > 0 && (form == "keyed" || len(tc.l) <= 7)
				rkeyed := len(tc.r) > 0 && (form != "runs" || len(tc.r) <= 11)
				if (m.l.run != nil) != lkeyed || (m.r.run != nil) != rkeyed {
					t.Fatalf("%s: keyed sides %v/%v", what, m.l.run != nil, m.r.run != nil)
				}
				if lkeyed && (ls.runs[0].wide != nil) != tc.wide {
					t.Fatalf("%s: wide-span fallback %v, want %v", what, ls.runs[0].wide != nil, tc.wide)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if err := sameRows(drainRows(t, m), want); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
	}
}

// TestSmallSelectionJoinAllocations pins what a small-selection hash
// join allocates when, as in vdb, every statement builds a fresh
// operator tree: a 13-row build (a filtered 5 000-row table) probed by a
// whole 5 000-row table, as in the point workloads' median statement.
// The key index, the build row indexes, the chain, the probe's hit
// vectors, the filter's selection vector, the scans' column windows and
// the output batch's headers come from the scratch pools and go back to
// them, and the output arena is sized to its rows, so a run allocates
// the output's data (13 one-column rows, in an arena of 16 values), as
// much again for the headers a consumer would keep, and the operators
// themselves.
func TestSmallSelectionJoinAllocations(t *testing.T) {
	if PoolsDrop {
		t.Skip("sync.Pool does not keep what it is given")
	}
	const n = 5000
	rng := rand.New(rand.NewSource(13))
	table := func(cols []rel.ColID, row func(i int) Row) *Table {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		return NewTable("t", NewSchema(cols), rows)
	}
	// The build: v < 13 keeps 13 rows, whose keys span about 800 values.
	build := table([]rel.ColID{1, 2, 3}, func(i int) Row {
		v := int64(13 + i)
		if i%37 == 0 && i/37 < 13 {
			v = int64(i / 37)
		}
		return Row{int64(i), 1 + rng.Int63n(833), v}
	})
	probe := table([]rel.ColID{4, 5, 6}, func(i int) Row { return Row{int64(i + 1), rng.Int63n(833), 0} })
	preds := []rel.Pred{{Col: 3, Op: rel.CmpLT, Val: 13}}
	rows := 0
	run := func() {
		j := NewColHashJoin(NewColFilter(NewColScan(build), build.Schema, preds), NewColScan(probe),
			build.Schema, probe.Schema, 1, 0, []int{0})
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, ok, err := j.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows += len(b.Rows)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // fill the pools
	if rows != 13 {
		t.Fatalf("the join returned %d rows, want 13", rows)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if rows != 13*(1+runs) {
		t.Fatalf("%d runs returned %d rows, want 13 each", 1+runs, rows)
	}
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	// 16 values of arena and 16 headers of 24 B, and the operators: two
	// scans, a filter and its compiled predicate, and the join. Six
	// allocations a run; the runtime adds a few of its own over 200 runs.
	const data, headers, operators = 16 * 8, 16 * 24, 1024
	if bytes > data+headers+operators || allocs > 6.1 {
		t.Errorf("a run allocates %.0f B in %.2f allocations; want at most %d B (output %d B, headers %d B, operators %d B) in 6",
			bytes, allocs, data+headers+operators, data, headers, operators)
	}
}
