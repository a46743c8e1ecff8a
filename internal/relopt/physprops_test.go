package relopt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

func TestCoversPrefixSemantics(t *testing.T) {
	ab := &PhysProps{Sort: []OrderCol{{Col: 1}, {Col: 2}}}
	a := &PhysProps{Sort: []OrderCol{{Col: 1}}}
	b := &PhysProps{Sort: []OrderCol{{Col: 2}}}
	aDesc := &PhysProps{Sort: []OrderCol{{Col: 1, Desc: true}}}

	cases := []struct {
		have, want *PhysProps
		covers     bool
	}{
		{ab, a, true},     // longer order covers its prefix
		{a, ab, false},    // prefix does not cover the longer order
		{ab, b, false},    // non-prefix column
		{a, Any, true},    // everything covers the vacuous vector
		{Any, a, false},   // the vacuous vector covers nothing sorted
		{a, aDesc, false}, // direction matters
		{ab, ab, true},    // reflexive
	}
	for i, c := range cases {
		if got := c.have.Covers(c.want); got != c.covers {
			t.Errorf("case %d: %q covers %q = %v, want %v", i, c.have, c.want, got, c.covers)
		}
	}
}

func TestCoversPartitioning(t *testing.T) {
	part := HashPartitioned(3, 4)
	sortPart := &PhysProps{Sort: []OrderCol{{Col: 1}}, Part: Partitioning{Kind: PartHash, Col: 3, Degree: 4}}
	if !part.Covers(part) || part.Covers(Any) {
		t.Fatal("a partitioned stream is not serial")
	}
	if Any.Covers(part) {
		t.Fatal("serial does not cover partitioned")
	}
	other := HashPartitioned(3, 8)
	if part.Covers(other) || other.Covers(part) {
		t.Fatal("different degrees are incompatible")
	}
	if !sortPart.Covers(part) {
		t.Fatal("sorted partitioned stream covers the bare partitioning")
	}
}

func TestEqualAndHash(t *testing.T) {
	a1 := SortedOn(1)
	a2 := SortedOn(1)
	b := SortedOn(2)
	if !a1.Equal(a2) || a1.Hash() != a2.Hash() {
		t.Fatal("equal vectors must hash equally")
	}
	if a1.Equal(b) {
		t.Fatal("different vectors compare equal")
	}
	if a1.Equal(a1.WithPart(Partitioning{Kind: PartHash, Col: 1, Degree: 2})) {
		t.Fatal("partitioning ignored by Equal")
	}
}

func TestDerivedVectors(t *testing.T) {
	p := &PhysProps{
		Sort: []OrderCol{{Col: 5}},
		Part: Partitioning{Kind: PartHash, Col: 5, Degree: 2},
	}
	if len(p.WithoutSort().Sort) != 0 || p.WithoutSort().Part != p.Part {
		t.Fatal("WithoutSort broken")
	}
	if p.WithoutPart().Part.Kind != PartNone || len(p.WithoutPart().Sort) != 1 {
		t.Fatal("WithoutPart broken")
	}
	if !Any.IsAny() || p.IsAny() {
		t.Fatal("IsAny broken")
	}
	if s := p.String(); s == "" {
		t.Fatal("String empty for non-vacuous vector")
	}
	if Any.String() != "" {
		t.Fatal("vacuous vector should render empty")
	}
}

// randProps generates random property vectors for quick checks.
type randProps struct{ p *PhysProps }

func (randProps) Generate(r *rand.Rand, _ int) reflect.Value {
	p := &PhysProps{}
	for i, n := 0, r.Intn(3); i < n; i++ {
		p.Sort = append(p.Sort, OrderCol{Col: rel.ColID(1 + r.Intn(4)), Desc: r.Intn(2) == 1})
	}
	if r.Intn(2) == 1 {
		p.Part = Partitioning{Kind: PartHash, Col: rel.ColID(1 + r.Intn(4)), Degree: 2 + r.Intn(3)}
	}
	return reflect.ValueOf(randProps{p})
}

// TestQuickCoverLaws: Covers is reflexive and transitive, and Equal
// implies mutual covering and hash equality.
func TestQuickCoverLaws(t *testing.T) {
	check := func(a, b, c randProps) bool {
		if !a.p.Covers(a.p) {
			return false
		}
		if a.p.Covers(b.p) && b.p.Covers(c.p) && !a.p.Covers(c.p) {
			return false
		}
		if a.p.Equal(b.p) {
			if !a.p.Covers(b.p) || !b.p.Covers(a.p) || a.p.Hash() != b.p.Hash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{IO: 2, CPU: 1}
	b := Cost{IO: 1, CPU: 0.5}
	if got := a.Add(b); got.IO != 3 || got.CPU != 1.5 {
		t.Fatalf("Add = %+v", got)
	}
	if got := a.Sub(b); got.IO != 1 || got.CPU != 0.5 {
		t.Fatalf("Sub = %+v", got)
	}
	if !b.Less(a) || a.Less(b) {
		t.Fatal("Less broken")
	}
	if !math.IsInf(Infinite.Sub(a).IO, 1) {
		t.Fatal("infinite minus finite must stay infinite")
	}
	if a.String() == "" || Infinite.String() != "inf" {
		t.Fatal("cost rendering broken")
	}
}

func TestHashSpillIO(t *testing.T) {
	p := DefaultParams()
	if got := HashSpillIO(p, 100, 100); got != 0 {
		t.Fatalf("build within memory should not spill, got %f", got)
	}
	p.MemoryPages = 50
	got := HashSpillIO(p, 100, 200)
	want := 2 * 0.5 * 300.0 // half of both inputs written and read
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("spill = %f, want %f", got, want)
	}
}
