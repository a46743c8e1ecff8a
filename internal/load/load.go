// Package load holds the demo statement mix that the benchmark's
// point-hot workload (bench/) replays against the generated demo schema.
package load

import "fmt"

// Statement is one workload element.
type Statement struct {
	SQL    string  `json:"sql"`
	Params []int64 `json:"params,omitempty"`
}

// ChainWorkload builds a statement mix over the generated demo schema
// (tables R1..Rn with columns id/ja/jb/v): chain equi-joins of 2..4
// relations with varying selections, plus aggregate and ordered
// variants, count statements in total. Distinct spellings defeat plan
// caching for part of the mix while repeats exercise it.
func ChainWorkload(n, count int) []Statement {
	if n < 2 {
		n = 2
	}
	join := func(k int) string {
		from := "R1"
		where := ""
		for i := 2; i <= k; i++ {
			from += fmt.Sprintf(", R%d", i)
			if where != "" {
				where += " AND "
			}
			where += fmt.Sprintf("R%d.ja = R%d.id", i-1, i)
		}
		return from + " WHERE " + where
	}
	maxK := 4
	if n < maxK {
		maxK = n
	}
	out := make([]Statement, 0, count)
	for i := 0; len(out) < count; i++ {
		k := 2 + i%(maxK-1)
		switch i % 4 {
		case 0:
			out = append(out, Statement{SQL: fmt.Sprintf(
				"SELECT R1.id FROM %s AND R1.v < %d", join(k), 3+i%7)})
		case 1:
			out = append(out, Statement{SQL: fmt.Sprintf(
				"SELECT R1.id, R1.v FROM %s ORDER BY R1.id", join(k))})
		case 2:
			out = append(out, Statement{SQL: fmt.Sprintf(
				"SELECT R1.ja FROM %s GROUP BY R1.ja", join(k))})
		case 3:
			out = append(out, Statement{
				SQL:    fmt.Sprintf("SELECT R1.id FROM %s AND R1.v < $1", join(k)),
				Params: []int64{int64(2 + i%5)},
			})
		}
	}
	return out
}
