package datagen

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relopt"
)

func TestCatalogShape(t *testing.T) {
	s := New(1)
	cat := s.Catalog(8)
	if got := len(cat.Tables()); got != 8 {
		t.Fatalf("tables = %d, want 8", got)
	}
	for _, name := range cat.Tables() {
		tab := cat.Table(name)
		if tab.Rows < MinRows || tab.Rows > MaxRows {
			t.Errorf("%s rows = %d, want within [%d,%d]", name, tab.Rows, MinRows, MaxRows)
		}
		if tab.RowBytes != TableRowBytes {
			t.Errorf("%s rowBytes = %d, want %d", name, tab.RowBytes, TableRowBytes)
		}
		if len(tab.Columns) != 4 {
			t.Errorf("%s columns = %d, want 4", name, len(tab.Columns))
		}
	}
}

func TestQueryShapes(t *testing.T) {
	s := New(2)
	cat := s.Catalog(8)
	for _, shape := range []Shape{ShapeRandom, ShapeChain, ShapeStar} {
		q := s.SelectJoinQuery(cat, 5, shape)
		if len(q.Tables) != 5 {
			t.Errorf("shape %d: tables = %d, want 5", shape, len(q.Tables))
		}
		if len(q.Joins) != 4 {
			t.Errorf("shape %d: joins = %d, want 4", shape, len(q.Joins))
		}
		if len(q.Selections) != 5 {
			t.Errorf("shape %d: selections = %d, want 5", shape, len(q.Selections))
		}
		seen := map[string]bool{}
		for _, name := range q.Tables {
			if seen[name] {
				t.Errorf("shape %d: duplicate table %s", shape, name)
			}
			seen[name] = true
		}
	}
}

func TestRowsMatchCatalog(t *testing.T) {
	s := New(3)
	cat := s.Catalog(2)
	data := s.Rows(cat)
	for _, name := range cat.Tables() {
		tab := cat.Table(name)
		rows := data[name]
		if int64(len(rows)) != tab.Rows {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), tab.Rows)
		}
		// Key column values must be distinct.
		keys := make(map[int64]bool, len(rows))
		for _, r := range rows {
			if keys[r[0]] {
				t.Fatalf("%s: duplicate key %d", name, r[0])
			}
			keys[r[0]] = true
		}
		// All values within declared domains.
		for _, r := range rows {
			for j, c := range tab.Columns {
				m := cat.Column(c)
				if r[j] < m.Min || r[j] > m.Max {
					t.Fatalf("%s.%s value %d outside [%d,%d]", name, m.Name, r[j], m.Min, m.Max)
				}
			}
		}
	}
}

// TestScaledCatalogDeterministic: the benchmark's reproducibility rests
// on one seed pinning the whole dataset — two sources built from the
// same seed must produce identical scaled catalogs and identical table
// contents, and a different seed must actually change the data (so
// bench/run.sh --seed is not a no-op).
func TestScaledCatalogDeterministic(t *testing.T) {
	const rows = 2000
	gen := func(seed int64) (map[string]int64, map[string][][]int64) {
		s := New(seed)
		cat := s.ScaledCatalog(3, rows)
		sizes := map[string]int64{}
		for _, name := range cat.Tables() {
			sizes[name] = cat.Table(name).Rows
		}
		return sizes, s.Rows(cat)
	}

	sizesA, dataA := gen(1993)
	sizesB, dataB := gen(1993)
	if len(sizesA) != len(sizesB) {
		t.Fatalf("same seed, different table counts: %d vs %d", len(sizesA), len(sizesB))
	}
	for name, n := range sizesA {
		if sizesB[name] != n {
			t.Errorf("same seed, %s sized %d vs %d", name, n, sizesB[name])
		}
		a, b := dataA[name], dataB[name]
		if len(a) != len(b) {
			t.Fatalf("same seed, %s has %d vs %d rows", name, len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("same seed, %s row %d col %d: %d vs %d", name, i, j, a[i][j], b[i][j])
				}
			}
		}
	}

	_, dataC := gen(7)
	same := true
outer:
	for name, a := range dataA {
		c := dataC[name]
		if len(a) != len(c) {
			same = false
			break
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != c[i][j] {
					same = false
					break outer
				}
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

// TestOptimizeScaling exercises the Volcano optimizer across the paper's
// query sizes and reports effort, guarding against search-space
// explosions.
func TestOptimizeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short mode")
	}
	s := New(4)
	cat := s.Catalog(8)
	for n := 2; n <= 8; n++ {
		q := s.SelectJoinQuery(cat, n, ShapeRandom)
		model := relopt.New(cat, relopt.DefaultConfig())
		opt := core.NewOptimizer(model, nil)
		root := opt.InsertQuery(q.Root)
		start := time.Now()
		plan, err := opt.Optimize(root, nil)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if plan == nil {
			t.Fatalf("n=%d: no plan", n)
		}
		st := opt.Stats()
		t.Logf("n=%d: %v, groups=%d exprs=%d goals=%d mem=%dB cost=%s",
			n, elapsed, st.Groups, st.Exprs, st.GoalsOptimized, st.PeakMemoBytes, plan.Cost)
		if st.ConsistencyViolations != 0 {
			t.Fatalf("n=%d: consistency violations", n)
		}
	}
}
