package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

// TestStackedFiltersFoldIntoOneOperator checks the builder rule behind
// every range predicate: sqlish lowers lo <= v < hi to two stacked
// Filter nodes, the builder folds them into one operator directly over
// the scan, and so the survivors of a compacted table reach a row
// consumer as the stored rows themselves — headers, no row values.
func TestStackedFiltersFoldIntoOneOperator(t *testing.T) {
	cat, db := analyticDB(t, 1, 20000)
	plan := analyticPlan(t, cat, "SELECT * FROM R1 WHERE R1.v >= 250 AND R1.v < 750")
	if _, ok := plan.Op.(*relopt.Filter); !ok {
		t.Fatalf("plan root is %T, want a filter:\n%s", plan.Op, plan.Format())
	}
	if _, ok := plan.Inputs[0].Op.(*relopt.Filter); !ok {
		t.Fatalf("the range was not lowered to stacked filters:\n%s", plan.Format())
	}

	it, _, err := exec.BuildPlanOpts(context.Background(), db, plan, nil, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := it.(*exec.ColFilter); !ok {
		t.Fatalf("root operator %T, want *exec.ColFilter", it)
	} else if _, ok := f.In.(*exec.ColScan); !ok {
		t.Fatalf("filter input %T, want *exec.ColScan (filters not folded)", f.In)
	}

	// A stored row is a window of the table's row slab: the address of
	// its first value names it.
	tab := db.Table("R1")
	stored := map[*int64]bool{}
	for i := range tab.Len() {
		stored[&tab.Row(i)[0]] = true
	}
	rows, _, err := exec.RunOpts(context.Background(), db, plan, nil, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5000 {
		t.Fatalf("only %d of 20000 rows survive a predicate of selectivity one half", len(rows))
	}
	for i, r := range rows {
		if r[3] < 250 || r[3] >= 750 {
			t.Fatalf("row %d = %v fails the predicate", i, r)
		}
		if !stored[&r[0]] {
			t.Fatalf("row %d = %v is a copy, not the stored row", i, r)
		}
		if cap(r) != len(r) {
			t.Fatalf("row %d = %v has capacity %d: an append to it would write into the next stored row", i, r, cap(r))
		}
	}

	// What a run allocates is the result's header slice and per-operator
	// state; row values for the survivors would add 32 bytes a row.
	if exec.PoolsDrop {
		return // sync.Pool does not keep what it is given
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := exec.RunOpts(context.Background(), db, plan, nil, exec.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := int(after.TotalAlloc-before.TotalAlloc) / runs
	headers := 24 * len(rows)
	const slack = 64 << 10
	if perRun > headers+slack {
		t.Errorf("a run allocates %d B; the result headers are %d B and the slack %d B, row values would be %d B more",
			perRun, headers, slack, 32*len(rows))
	}
}

// joinIterators lists the joins of an iterator tree, every join after
// the joins below it.
func joinIterators(it exec.Iterator) []exec.Iterator {
	switch op := it.(type) {
	case *exec.ColHashJoin:
		return append(append(joinIterators(op.Left), joinIterators(op.Right)...), it)
	case *exec.MergeJoin:
		return append(append(joinIterators(op.Left), joinIterators(op.Right)...), it)
	case *exec.Sort:
		return joinIterators(op.In)
	case *exec.ColFilter:
		return joinIterators(op.In)
	case *exec.ColProject:
		return joinIterators(op.In)
	case *exec.ColHashGroupBy:
		return joinIterators(op.In)
	case *exec.ColSortGroupBy:
		return joinIterators(op.In)
	}
	return nil
}

// TestJoinsEmitOnlyReadColumns pins projection pushdown at build on the
// point workloads' GROUP BY and ORDER BY chains over four 5 000-row
// tables: each join emits only the columns read above it (R1.ja and the
// next key for the GROUP BY; R1.id, R1.v and the next key for the ORDER
// BY, whose top join carries the fused projection; the next key alone,
// and one column at the top, for a global COUNT(*)) instead of every
// column of both inputs (8, 12 and 16 columns). Each join's width is read
// off the first row it produces on its own, from a fresh build.
func TestJoinsEmitOnlyReadColumns(t *testing.T) {
	cat, db := analyticDB(t, 4, 5000)
	const chain = " FROM R1, R2, R3, R4 WHERE R1.ja = R2.id AND R2.ja = R3.id AND R3.ja = R4.id"
	for _, tc := range []struct {
		sql  string
		want []int
	}{
		{"SELECT R1.ja" + chain + " GROUP BY R1.ja", []int{2, 2, 1}},
		{"SELECT R1.id, R1.v" + chain + " ORDER BY R1.id", []int{3, 3, 2}},
		// A global COUNT(*) reads no column; the top join keeps one.
		{"SELECT COUNT(*)" + chain, []int{1, 1, 1}},
	} {
		plan := analyticPlan(t, cat, tc.sql)
		var got []int
		for k := 0; ; k++ {
			it, _, err := exec.BuildPlanOpts(context.Background(), db, plan, nil, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			joins := joinIterators(it)
			if k == len(joins) {
				break
			}
			rows, err := exec.Collect(joins[k])
			if err != nil || len(rows) == 0 {
				t.Fatalf("%q join %d: %d rows, %v\n%s", tc.sql, k, len(rows), err, plan.Format())
			}
			got = append(got, len(rows[0]))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%q: joins emit %v columns, want %v\n%s", tc.sql, got, tc.want, plan.Format())
		}
	}
}

// genStatement draws one statement over smallData's tables: a chain of
// one to three of them joined on ja, some links with a residual jb
// inequality, two-sided ranges on some tables, as a
// projection, an ORDER BY (ascending or descending, one or two keys), a
// GROUP BY with every aggregate, or the INTERSECT or UNION of the chain
// with a two-table chain from its first table.
func genStatement(rng *rand.Rand, tables int) (sql string, orderBy []string, desc []bool) {
	k := 1 + rng.Intn(3)
	first := 1 + rng.Intn(tables-k+1)
	var from, where []string
	for i := 0; i < k; i++ {
		tab := tname(first + i)
		from = append(from, tab)
		if i > 0 {
			where = append(where, fmt.Sprintf("%s.ja = %s.ja", tname(first+i-1), tab))
			if rng.Intn(3) == 0 {
				// A residual filter above the join.
				where = append(where, fmt.Sprintf("%s.jb <> %s.jb", tname(first+i-1), tab))
			}
		}
		if rng.Intn(2) == 0 {
			lo := rng.Intn(30)
			where = append(where, fmt.Sprintf("%s.v >= %d", tab, lo), fmt.Sprintf("%s.v < %d", tab, lo+5+rng.Intn(30)))
		}
	}
	t0 := from[0]
	tail := " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		tail += " WHERE " + strings.Join(where, " AND ")
	}
	switch rng.Intn(4) {
	case 3:
		// A second chain from t0 through another table, under a set
		// operation: its inputs' rows are compared whole.
		u := tname(1 + (first+rng.Intn(tables-1))%tables)
		lo := rng.Intn(30)
		setOp := []string{"INTERSECT", "UNION"}[rng.Intn(2)]
		return fmt.Sprintf("SELECT %s.id, %s.ja%s %s SELECT %s.id, %s.ja FROM %s, %s WHERE %s.ja = %s.ja AND %s.v >= %d",
			t0, t0, tail, setOp, t0, t0, t0, u, t0, u, u, lo), nil, nil
	case 0:
		return fmt.Sprintf("SELECT %s.id, %s.v%s", t0, from[k-1], tail), nil, nil
	case 1:
		orderBy, desc = []string{t0 + ".ja"}, []bool{rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			orderBy, desc = append(orderBy, t0+".v"), append(desc, rng.Intn(2) == 0)
		}
		var keys []string
		for i, c := range orderBy {
			if desc[i] {
				c += " DESC"
			}
			keys = append(keys, c)
		}
		return fmt.Sprintf("SELECT %s.ja, %s.v, %s.id%s ORDER BY %s", t0, t0, from[k-1], tail, strings.Join(keys, ", ")), orderBy, desc
	default:
		return fmt.Sprintf("SELECT %s.jb, COUNT(*), SUM(%s.v), MIN(%s.id), MAX(%s.v)%s GROUP BY %s.jb",
			t0, t0, t0, from[k-1], tail, t0), nil, nil
	}
}

// TestGeneratedPlansThreeWays runs generated statements three ways —
// the plan's build at the default batch size and at 7, and the
// by-definition reference evaluator — over the loaded tables and over
// copies rebuilt by NewTable from the rows Table.Row reads out of them,
// and requires equal multisets everywhere and, for ORDER BY, the same
// key sequence in the requested order at both batch sizes.
func TestGeneratedPlansThreeWays(t *testing.T) {
	cat, loaded, _ := smallData(t, 51, 4)
	rebuilt := exec.NewDB()
	for i := 1; i <= 4; i++ {
		src := loaded.Table(tname(i))
		rows := make([]exec.Row, src.Len())
		for j := range rows {
			rows[j] = src.Row(j)
		}
		rebuilt.Add(exec.NewTable(src.Name, src.Schema, rows))
	}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 150; trial++ {
		sql, orderBy, desc := genStatement(rng, 4)
		parsed, err := sqlish.Parse(cat, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
		plan, err := opt.Optimize(opt.InsertQuery(parsed.Tree), parsed.Required)
		if err != nil || plan == nil {
			t.Fatalf("%q: optimize: %v", sql, err)
		}
		ref, refSchema, err := exec.Reference(loaded, parsed.Tree)
		if err != nil {
			t.Fatalf("%q: reference: %v", sql, err)
		}
		want := exec.Fingerprint(exec.Canonical(ref, refSchema))

		for dbName, db := range map[string]*exec.DB{"loaded": loaded, "rebuilt": rebuilt} {
			var keySeq string
			for _, cfg := range []struct {
				name string
				opts exec.Options
			}{
				{"default", exec.Options{}},
				{"default7", exec.Options{BatchSize: 7}},
			} {
				got, schema, err := exec.RunOpts(context.Background(), db, plan, nil, cfg.opts)
				if err != nil {
					t.Fatalf("%q %s/%s: %v\n%s", sql, dbName, cfg.name, err, plan.Format())
				}
				if exec.Fingerprint(exec.Canonical(got, schema)) != want {
					t.Fatalf("%q %s/%s: %d rows differ from the reference's %d\n%s",
						sql, dbName, cfg.name, len(got), len(ref), plan.Format())
				}
				if orderBy == nil {
					continue
				}
				pos := make([]int, len(orderBy))
				for j, c := range orderBy {
					tab, col, _ := strings.Cut(c, ".")
					pos[j] = schema.Pos(cat.ColumnID(tab, col))
				}
				var seq strings.Builder
				for i, r := range got {
					for j, p := range pos {
						fmt.Fprintf(&seq, "%d,", r[p])
						if i > 0 && got[i-1][p] != r[p] {
							if (got[i-1][p] > r[p]) != desc[j] {
								t.Fatalf("%q %s/%s: rows %d and %d out of order on %s\n%s",
									sql, dbName, cfg.name, i-1, i, orderBy[j], plan.Format())
							}
							// Later keys only order rows that tie on this one.
							for _, q := range pos[j+1:] {
								fmt.Fprintf(&seq, "%d,", r[q])
							}
							break
						}
					}
				}
				if keySeq == "" {
					keySeq = seq.String()
				} else if keySeq != seq.String() {
					t.Fatalf("%q %s/%s: sort-key sequence differs from the default batch size's", sql, dbName, cfg.name)
				}
			}
		}
	}
}
