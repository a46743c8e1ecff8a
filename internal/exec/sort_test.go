package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/rel"
	"repro/internal/relopt"
)

// sortCase is one generated input of the differential test: rows of
// three key columns and a trailing arrival ordinal that no sort order
// names, so that the order of ties is visible in the output.
type sortCase struct {
	name  string
	rows  []Row
	order []relopt.OrderCol
}

var sortSchema = NewSchema([]rel.ColID{1, 2, 3, 4})

// keyDomains are the value distributions of a generated key column:
// heavy duplicates, signed values, a span that needs several radix
// passes, and the full int64 range, which forces the comparison
// fallback.
var keyDomains = []struct {
	name string
	draw func(*rand.Rand) int64
}{
	{"dups", func(r *rand.Rand) int64 { return int64(r.Intn(7)) }},
	{"signed", func(r *rand.Rand) int64 { return int64(r.Intn(2001) - 1000) }},
	{"span31", func(r *rand.Rand) int64 { return -5 + int64(r.Intn(1<<31-1)) }},
	{"wide", func(r *rand.Rand) int64 {
		switch r.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return int64(r.Uint64())
	}},
}

func genSortCases(rng *rand.Rand) []sortCase {
	var cases []sortCase
	for _, n := range []int{0, 1, 2, 3, 17, 300, 5000} {
		for _, dom := range keyDomains {
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{dom.draw(rng), int64(rng.Intn(3)), int64(rng.Intn(5) - 2), int64(i)}
			}
			for _, order := range [][]relopt.OrderCol{
				{{Col: 1}},
				{{Col: 1, Desc: true}},
				{{Col: 2}, {Col: 1, Desc: true}},
				{{Col: 2, Desc: true}, {Col: 3}, {Col: 1}},
			} {
				cases = append(cases, sortCase{
					name:  fmt.Sprintf("n%d/%s/%v", n, dom.name, order),
					rows:  rows,
					order: order,
				})
			}
		}
	}
	return cases
}

// oracleSort is the specification: the standard library's stable sort
// with the comparison written out.
func oracleSort(rows []Row, order []relopt.OrderCol) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, oc := range order {
			a, b := out[i][sortSchema.Pos(oc.Col)], out[j][sortSchema.Pos(oc.Col)]
			if a == b {
				continue
			}
			if oc.Desc {
				return a > b
			}
			return a < b
		}
		return false
	})
	return out
}

func sameRows(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("row %d is %v, want %v", i, a[i], b[i])
			}
		}
	}
	return nil
}

// TestSortMatchesStableOracle runs the sort kernel against
// sort.SliceStable over generated inputs — duplicates, negative, multi-pass
// and wide-span keys, several keys, DESC, empty and tiny inputs, one run
// and explicit runs of 1..32 rows, fed by a row iterator, a columnar
// scan and a fused columnar filter — and requires the identical order,
// ties included.
func TestSortMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range genSortCases(rng) {
		want := oracleSort(c.rows, c.order)
		tab := NewTable("t", sortSchema, c.rows)
		inputs := map[string]func() Iterator{
			"iter":    func() Iterator { return iterOf(c.rows...) },
			"colscan": func() Iterator { return NewColScan(tab) },
			"colfilter": func() Iterator {
				// Always true: every row survives, through a selection vector.
				return NewColFilter(NewColScan(tab), sortSchema, []rel.Pred{{Col: 4, Op: rel.CmpGE, Val: 0}})
			},
		}
		for in, mk := range inputs {
			for _, runRows := range []int{0, 1 + rng.Intn(32)} {
				s := NewSort(mk(), sortSchema, c.order)
				s.RunRows = runRows
				s.SetBatchSize([]int{1, 7, DefaultBatchSize}[rng.Intn(3)])
				got, err := Collect(s)
				if err != nil {
					t.Fatalf("%s/%s/run%d: %v", c.name, in, runRows, err)
				}
				if err := sameRows(got, want); err != nil {
					t.Fatalf("%s/%s/run%d: %v", c.name, in, runRows, err)
				}
			}
		}
		got := slices.Clone(c.rows)
		sortRows(got, sortKeysOf(c.order))
		if err := sameRows(got, want); err != nil {
			t.Fatalf("%s/sortRows: %v", c.name, err)
		}
	}
}

func sortKeysOf(order []relopt.OrderCol) []sortKey {
	keys := make([]sortKey, len(order))
	for i, oc := range order {
		keys[i] = sortKey{pos: sortSchema.Pos(oc.Col), desc: oc.Desc}
	}
	return keys
}

// TestRadixSortHighEveryWidth checks the radix kernel alone at every
// key width, so that each digit split (one to three passes, equal and
// unequal digits) is exercised.
func TestRadixSortHighEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for width := 0; width <= 32; width++ {
		v := make([]uint64, 3000)
		for i := range v {
			v[i] = (rng.Uint64()&(1<<width-1))<<32 | uint64(i)
		}
		want := append([]uint64(nil), v...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		radixSortHigh(v, width)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("width %d: element %d is %#x, want %#x", width, i, v[i], want[i])
			}
		}
	}
}

// --- benchmarks and the allocation pin.

// sortBenchRows is the input of BenchmarkSort and the allocation pin:
// the shape of exec-analytic's larger sort, a filtered 200 000-row table
// ordered on its join column.
const sortBenchRows = 60000

func sortBenchTable() *Table {
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, sortBenchRows)
	for i := range rows {
		rows[i] = Row{int64(i), 1 + int64(rng.Intn(200000/6)), int64(rng.Intn(200000 / 12)), int64(rng.Intn(1000))}
	}
	return NewTable("s", sortSchema, rows)
}

var sortBenchOrder = []relopt.OrderCol{{Col: 2}}

func runSort(tb testing.TB, in Iterator) {
	rows, err := Collect(NewSort(in, sortSchema, sortBenchOrder))
	if err != nil || len(rows) != sortBenchRows {
		tb.Fatalf("sort: %d rows, %v", len(rows), err)
	}
}

// BenchmarkSort sorts 60 000 four-column rows on one key from a
// columnar scan. The result's header slice (24 B a row) is part of the
// figures.
func BenchmarkSort(b *testing.B) {
	tab := sortBenchTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSort(b, NewColScan(tab))
	}
}

// TestSortAllocationBudget pins what a 60 000-row sort allocates beyond
// its result. Cold, with the scratch pools empty, it may allocate the
// headers it drains (24 B a row, in chunks), one permutation and one
// radix scratch vector (8 B a row each, rounded up to a power of two) —
// but no row values, which would add 32 B a row. Warm, with the
// collector off so the pools keep what Close gave back, only the batch
// of headers it emits through and the chunk index remain.
func TestSortAllocationBudget(t *testing.T) {
	if PoolsDrop {
		t.Skip("sync.Pool does not keep what it is given")
	}
	tab := sortBenchTable()
	sorted := func() {
		s := NewSort(NewColScan(tab), sortSchema, sortBenchOrder)
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, ok, err := s.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n += len(b.Rows)
		}
		if err := s.Close(); err != nil || n != sortBenchRows {
			t.Fatalf("sort: %d rows, %v", n, err)
		}
	}
	measure := func(runs int) (bytes, allocs float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sorted()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
			float64(after.Mallocs-before.Mallocs) / float64(runs)
	}

	// The scratch pools are sync.Pools, cached per P: a test goroutine
	// that migrates between Ps misses what the previous run gave back
	// and the warm measurement reads cold. Pin the measurement to one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Two collections empty a sync.Pool, victim cache included.
	runtime.GC()
	runtime.GC()
	const coldBytes, coldAllocs = 2_800_000, 96
	if bytes, allocs := measure(1); bytes > coldBytes || allocs > coldAllocs {
		t.Errorf("cold sort of %d rows: %.0f B and %.0f allocations, budget %d B and %d",
			sortBenchRows, bytes, allocs, coldBytes, coldAllocs)
	}
	const warmBytes, warmAllocs = 64 << 10, 48
	if bytes, allocs := measure(10); bytes > warmBytes || allocs > warmAllocs {
		t.Errorf("warm sort of %d rows: %.0f B and %.0f allocations per run, budget %d B and %d",
			sortBenchRows, bytes, allocs, warmBytes, warmAllocs)
	}
}

// TestFromDataClustersOnOrdered: loading respects the catalog's clustered
// order — a stable sort on its columns, through the kernel — and the
// column-major projection follows the rows.
func TestFromDataClustersOnOrdered(t *testing.T) {
	cat := rel.NewCatalog()
	tab := cat.AddTable("t", 500, 16)
	a := cat.AddColumn(tab, "a", 500, 0, 499)
	b := cat.AddColumn(tab, "b", 5, 0, 4)
	tab.Ordered = []rel.ColID{b}
	rng := rand.New(rand.NewSource(17))
	data := make([][]int64, 500)
	for i := range data {
		data[i] = []int64{int64(i), int64(rng.Intn(5))}
	}
	got := FromData(cat, map[string][][]int64{"t": data}).Table("t")
	pa, pb := got.Schema.Pos(a), got.Schema.Pos(b)
	for i := range got.Len() {
		r := got.Row(i)
		if i > 0 {
			prev := got.Row(i - 1)
			if prev[pb] > r[pb] || prev[pb] == r[pb] && prev[pa] > r[pa] {
				t.Fatalf("rows %d and %d are not in stable clustered order: %v, %v", i-1, i, prev, r)
			}
		}
		if got.cols[pa][i] != r[pa] || got.cols[pb][i] != r[pb] {
			t.Fatalf("row %d: column slab %d,%d differs from the row %v", i, got.cols[pa][i], got.cols[pb][i], r)
		}
	}
}
