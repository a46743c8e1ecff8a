package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/load"
	"repro/internal/sqlish"
)

// TestOracleMatchesReference checks the bench's by-definition evaluator
// against exec.Reference, the repository's own nested-loop oracle, on a
// 2000-row catalog, for every statement shape the workloads emit.
func TestOracleMatchesReference(t *testing.T) {
	const rows = 2000
	cat := fixedCatalog(pointTables, rows)
	data := datagen.New(7).Rows(cat)
	db := exec.FromData(cat, data)

	var stmts []load.Statement
	for _, s := range newAnalytic().statements(nil) {
		stmts = append(stmts, s.Statement)
	}
	stmts = append(stmts, hotStatements()...)
	stmts = append(stmts, churnStatements(rand.New(rand.NewSource(7)), 64)...)

	nonEmpty := 0
	for _, ls := range stmts {
		parsed, err := sqlish.Parse(cat, ls.SQL)
		if err != nil {
			t.Fatalf("%q: %v", ls.SQL, err)
		}
		exp, err := expect(cat, data, parsed.Tree, parsed.Required, ls.Params)
		if err != nil {
			t.Fatalf("%q: %v", ls.SQL, err)
		}
		// exec.Reference takes no parameters: bind them in the text.
		bound := ls.SQL
		for i, p := range ls.Params {
			bound = strings.ReplaceAll(bound, "$"+strconv.Itoa(i+1), strconv.FormatInt(p, 10))
		}
		refTree, err := sqlish.Parse(cat, bound)
		if err != nil {
			t.Fatalf("%q: %v", bound, err)
		}
		want, schema, err := exec.Reference(db, refTree.Tree)
		if err != nil {
			t.Fatalf("%q: reference: %v", bound, err)
		}
		unordered := *exp
		unordered.order = nil // Reference evaluates the tree, not the ORDER BY
		if err := check(cat, &unordered, columnNames(cat, schema.Cols), want); err != nil {
			t.Errorf("%q: oracle disagrees with exec.Reference: %v", ls.SQL, err)
		}

		// The same comparison by the repository's own fingerprint, which
		// shares no code with the bench's.
		got, err := evalTree(data, parsed.Tree, ls.Params)
		if err != nil {
			t.Fatal(err)
		}
		gotRows := make([]exec.Row, len(got.rows))
		for i, r := range got.rows {
			gotRows[i] = r
		}
		a := exec.Fingerprint(exec.Canonical(gotRows, exec.NewSchema(got.cols)))
		b := exec.Fingerprint(exec.Canonical(want, schema))
		if a != b {
			t.Errorf("%q: oracle rows differ from exec.Reference rows", ls.SQL)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	// Agreement on an empty result proves little; the selective churn
	// statements return a handful of rows at this size and a few none.
	if nonEmpty < len(stmts)*9/10 {
		t.Errorf("only %d of %d statements returned rows", nonEmpty, len(stmts))
	}
}

// TestCheckRejectsWrongResults makes sure a comparison that passes is
// not one that cannot fail.
func TestCheckRejectsWrongResults(t *testing.T) {
	cat := fixedCatalog(2, 200)
	data := datagen.New(3).Rows(cat)
	parsed, err := sqlish.Parse(cat, "SELECT R1.id, R1.v FROM R1, R2 WHERE R1.ja = R2.id AND R1.v < 500 ORDER BY R1.id")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := expect(cat, data, parsed.Tree, parsed.Required, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := evalTree(data, parsed.Tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := columnNames(cat, out.cols)
	idPos := 0
	if names[0] != "R1.id" {
		idPos = 1
	}
	sorted := append([][]int64(nil), out.rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][idPos] < sorted[j][idPos] })
	if err := check(cat, exp, names, sorted); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}

	dropped := sorted[1:]
	if check(cat, exp, names, dropped) == nil {
		t.Error("a missing row went unnoticed")
	}
	changed := append([][]int64(nil), sorted...)
	changed[3] = []int64{changed[3][0] + 1, changed[3][1]}
	if check(cat, exp, names, changed) == nil {
		t.Error("a changed value went unnoticed")
	}
	swapped := append([][]int64(nil), sorted...)
	swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
	if check(cat, exp, names, swapped) == nil {
		t.Error("a result out of its ORDER BY went unnoticed")
	}
	if check(cat, exp, []string{"R1.id", "R2.v"}, sorted) == nil {
		t.Error("a wrong column went unnoticed")
	}
}
