package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSameSeedSameInputs asserts that two set-ups with one seed produce
// byte-identical statements, reference plan costs, expected result
// fingerprints and per-operation search counts, and that another seed
// produces different ones.
func TestSameSeedSameInputs(t *testing.T) {
	a := fmt.Sprint(churnStatements(rand.New(rand.NewSource(5)), 200))
	b := fmt.Sprint(churnStatements(rand.New(rand.NewSource(5)), 200))
	c := fmt.Sprint(churnStatements(rand.New(rand.NewSource(6)), 200))
	if a != b {
		t.Error("churn statements differ between two draws with one seed")
	}
	if a == c {
		t.Error("churn statements do not depend on the seed")
	}

	vdbInputs := func(seed int64) string {
		w := newPointChurn()
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, st := range w.cycle[:256] {
			out += fmt.Sprintf("%s %v %v %s %v\n", st.SQL, st.Params, st.refCost, st.exp.want, st.exp.names)
		}
		return out
	}
	if x, y := vdbInputs(5), vdbInputs(5); x != y {
		t.Error("point-churn statements, costs or fingerprints differ between two set-ups with one seed")
	}
	if vdbInputs(5) == vdbInputs(6) {
		t.Error("point-churn inputs do not depend on the seed")
	}

	searchCounts := func(seed int64) (map[string]float64, string) {
		w := &optFig4{perLevel: 12}
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		costs := ""
		for _, oq := range w.queries {
			costs += fmt.Sprintf("%v %v\n", oq.q.Tables, oq.ref)
		}
		out := map[string]float64{}
		r, err := w.trace(0, newTracer(), out)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed > 0 {
			t.Fatalf("opt-fig4: %v", r.problems)
		}
		counts := map[string]float64{}
		for _, name := range []string{"match_calls", "steps", "goals", "rules_fired", "exprs", "groups", "limit_stages"} {
			counts[name] = out["core."+name+"_per_op"]
			if counts[name] == 0 {
				t.Errorf("core.%s_per_op not reported", name)
			}
		}
		return counts, costs
	}
	c1, costs1 := searchCounts(5)
	c2, costs2 := searchCounts(5)
	if !reflect.DeepEqual(c1, c2) || costs1 != costs2 {
		t.Errorf("opt-fig4 counts or costs differ between two runs with one seed:\n%v\n%v", c1, c2)
	}
	if _, costs3 := searchCounts(6); costs1 == costs3 {
		t.Error("opt-fig4 queries do not depend on the seed")
	}

	budgeted := func(seed int64) string {
		w := &optBudgeted{perCell: 3}
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, oq := range w.queries {
			o := optimizeOnce(w.cat, oq, w.options(oq), nil, 0, "")
			out += fmt.Sprintf("%d %v %v %d\n", oq.policy, oq.q.Tables, planCost(o.plan), o.stats.Steps())
		}
		return out
	}
	if x, y := budgeted(5), budgeted(5); x != y {
		t.Error("opt-budgeted plan costs or step counts differ between two runs with one seed")
	}
}
