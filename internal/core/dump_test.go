package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core/coretest"
)

func TestMemoFormat(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	if _, err := opt.Optimize(g, toyColor(1)); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	dump := opt.Memo().Format()
	for _, want := range []string{"class 1", "LEAF(a)", "PAIR[", "winner", "color1"} {
		if !strings.Contains(dump, want) {
			t.Errorf("memo dump missing %q:\n%s", want, dump)
		}
	}
}

func TestMemoFormatRecordsFailures(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	if _, err := opt.OptimizeWithLimitCtx(context.Background(), g, toyColor(1), toyCost(2)); err != nil {
		t.Fatal(err)
	}
	coretest.CheckMemo(t, opt)
	if !strings.Contains(opt.Memo().Format(), "failed under limit") {
		t.Error("memo dump does not show memoized failures")
	}
}

func TestPlanDot(t *testing.T) {
	opt := newToyOpt(nil)
	g := opt.InsertQuery(pair(leaf("a"), leaf("b")))
	plan, err := opt.Optimize(g, toyColor(2))
	coretest.CheckMemo(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	dot := plan.Dot()
	for _, want := range []string{"digraph plan", "paint", "plain-pair", "toy-scan", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
	if got := strings.Count(dot, "->"); got != 3 {
		t.Errorf("dot edges = %d, want 3", got)
	}
}
