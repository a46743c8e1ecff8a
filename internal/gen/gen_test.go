package gen_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestGoldenMinirel regenerates the checked-in minirel optimizer from
// its specification and requires byte equality: the generated package
// in internal/gen/minirel is exactly what volcano-gen emits.
func TestGoldenMinirel(t *testing.T) {
	specSrc, err := os.ReadFile("testdata/minirel.model")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := gen.Parse(string(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("minirel/minirel.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("generated output differs from checked-in minirel/minirel.go; " +
			"run: go run ./cmd/volcano-gen -spec internal/gen/testdata/minirel.model -o internal/gen/minirel/minirel.go")
	}
}

func TestParseSpecStructure(t *testing.T) {
	specSrc, err := os.ReadFile("testdata/minirel.model")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := gen.Parse(string(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model != "minirel" {
		t.Errorf("model = %q", spec.Model)
	}
	if len(spec.Operators) != 3 || len(spec.Transforms) != 2 ||
		len(spec.Algorithms) != 4 || len(spec.Enforcers) != 1 {
		t.Errorf("counts: ops=%d transforms=%d algs=%d enfs=%d",
			len(spec.Operators), len(spec.Transforms), len(spec.Algorithms), len(spec.Enforcers))
	}
	assoc := spec.Transforms[1]
	if assoc.Name != "join_assoc" || assoc.Condition != "assocValid" {
		t.Errorf("assoc = %+v", assoc)
	}
	if assoc.Pattern.Children[0].Label != "inner" {
		t.Errorf("inner label = %q", assoc.Pattern.Children[0].Label)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no model":          "operator GET 0;",
		"unknown op":        "model m; operator GET 0; transform t: FOO(?a) -> FOO:x(?a);",
		"bad arity":         "model m; operator GET 0; transform t: GET(?a) -> GET;",
		"unbound var":       "model m; operator S 1; transform t: S:s(?a) -> S:s(?b);",
		"unlabeled subst":   "model m; operator S 1; transform t: S(?a) -> S(?a);",
		"wrong label kind":  "model m; operator S 1; operator T 1; transform t: S:x(T:y(?a)) -> T:x(?a);",
		"missing cost":      "model m; operator GET 0; algorithm SCAN implements GET;",
		"enforcer no relax": "model m; operator GET 0; algorithm SCAN implements GET cost c; enforcer E cost c2;",
		"dup operator":      "model m; operator GET 0; operator GET 0;",
		"var bound twice":   "model m; operator J 2; transform t: J:j(?a, ?a) -> J:j(?a, ?a);",
		"trailing garbage":  "model m extra;",
		"bad char":          "model m; operator GET 0 @;",
	}
	for name, src := range cases {
		if _, err := gen.Parse(src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestGenerateConflictingSignature(t *testing.T) {
	src := `model m; operator GET 0; operator S 1;
	algorithm SCAN implements GET cost f;
	algorithm FILT implements S(?x) cost c applicability f;`
	spec, err := gen.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(spec); err == nil {
		t.Fatal("Generate succeeded with a name used at two signatures")
	}
}

// TestRelationalSpecParsesAndGenerates: the full relational model's
// specification (the DSL documentation of internal/relopt) parses,
// validates, and generates compilable-shaped source.
func TestRelationalSpecParsesAndGenerates(t *testing.T) {
	src, err := os.ReadFile("testdata/relational.model")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := gen.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Operators) != 7 || len(spec.Transforms) != 9 ||
		len(spec.Algorithms) != 14 || len(spec.Enforcers) != 2 {
		t.Fatalf("counts: ops=%d transforms=%d algs=%d enfs=%d",
			len(spec.Operators), len(spec.Transforms), len(spec.Algorithms), len(spec.Enforcers))
	}
	out, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package relational",
		"KindGET core.OpKind = iota + 1",
		"MERGE_JOIN_PROJECT",      // multi-operator pattern present
		"if s.PredInLeft(ctx, b)", // guarded multi-substitute rule
		"Relax:   s.ExchangeRelax,",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

// TestMultiSubstituteTransform: a rule with guarded alternatives fills
// one slot per substitute, guarded by its condition, and hands the
// filled prefix to the context's result helper.
func TestMultiSubstituteTransform(t *testing.T) {
	src := `model m; operator S 1; operator J 2;
	transform push: S:s(J:j(?l, ?r))
	    -> J:j(S:s(?l), ?r) when inLeft
	     | J:j(?l, S:s(?r)) when inRight;
	algorithm A implements S(?x) cost c;`
	spec, err := gen.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Transforms[0].Substs) != 2 {
		t.Fatalf("substs = %d, want 2", len(spec.Transforms[0].Substs))
	}
	out, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"if s.InLeft(ctx, b)", "if s.InRight(ctx, b)",
		"var out [2]*core.ExprTree", "out[n] = ctx.Node(", "return ctx.Substitutes(out[:n]...)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}
