package fig4

import (
	"testing"

	"repro/internal/datagen"
)

// quick is a reduced experiment configuration for tests.
func quick() Config {
	return Config{
		Seed:            7,
		QueriesPerLevel: 5,
		MinRelations:    2,
		MaxRelations:    6,
		Shape:           datagen.ShapeRandom,
	}.Defaults()
}

// TestFigure4Shape checks the qualitative results the paper reports:
// the baseline never beats Volcano on time or plan quality; the time gap
// grows with query complexity; plan quality is (near-)equal for small
// queries and degrades for complex ones.
func TestFigure4Shape(t *testing.T) {
	points := Run(quick())
	t.Logf("\n%s", Format(points))

	if len(points) != 5 {
		t.Fatalf("points = %d, want 5", len(points))
	}
	for _, p := range points {
		if p.ExodusCompleted == 0 {
			t.Errorf("rels=%d: no completed baseline runs", p.Relations)
			continue
		}
		if p.QualityRatio < 1-1e-9 {
			t.Errorf("rels=%d: baseline plans cheaper than the DP optimum (ratio %.3f)",
				p.Relations, p.QualityRatio)
		}
	}
	small, large := points[0], points[len(points)-1]
	if large.ExodusMS/large.VolcanoMS <= small.ExodusMS/small.VolcanoMS {
		t.Errorf("time gap did not grow: %.1fx at %d rels vs %.1fx at %d rels",
			small.ExodusMS/small.VolcanoMS, small.Relations,
			large.ExodusMS/large.VolcanoMS, large.Relations)
	}
}

// TestAblationInvariants checks that disabling pruning or failure
// memoization never changes the plan (the optimum is unique in cost) but
// never reduces search effort, and that glue mode produces plans at
// least as expensive as property-directed search.
func TestAblationInvariants(t *testing.T) {
	cfg := quick()
	cfg.MaxRelations = 5
	points := RunAblation(cfg)
	t.Logf("\n%s", FormatAblation(points))

	byVariant := map[string]map[int]AblationPoint{}
	for _, p := range points {
		if byVariant[p.Variant] == nil {
			byVariant[p.Variant] = map[int]AblationPoint{}
		}
		byVariant[p.Variant][p.Relations] = p
	}
	for n := cfg.MinRelations; n <= cfg.MaxRelations; n++ {
		def := byVariant["default"][n]
		noPrune := byVariant["no-pruning"][n]
		noMemo := byVariant["no-failure-memo"][n]
		glue := byVariant["glue-mode"][n]

		if noPrune.MeanCost != def.MeanCost {
			t.Errorf("rels=%d: no-pruning cost %.3f != default %.3f",
				n, noPrune.MeanCost, def.MeanCost)
		}
		if noMemo.MeanCost != def.MeanCost {
			t.Errorf("rels=%d: no-failure-memo cost %.3f != default %.3f",
				n, noMemo.MeanCost, def.MeanCost)
		}
		if glue.MeanCost < def.MeanCost {
			t.Errorf("rels=%d: glue-mode cost %.3f beats property-directed %.3f",
				n, glue.MeanCost, def.MeanCost)
		}
		if noPrune.MeanGoals < def.MeanGoals {
			t.Errorf("rels=%d: no-pruning searched fewer goals (%f < %f)",
				n, noPrune.MeanGoals, def.MeanGoals)
		}
	}
}

// TestMemoryClaim verifies the paper's report that the Volcano-generated
// optimizer performed exhaustive search for all test queries with less
// than 1 MB of work space.
func TestMemoryClaim(t *testing.T) {
	cfg := quick()
	points := Run(cfg)
	for _, p := range points {
		if p.VolcanoMemBytes >= 1<<20 {
			t.Errorf("rels=%d: volcano memo %d bytes, want < 1 MB", p.Relations, p.VolcanoMemBytes)
		}
	}
}

// TestAltProps checks the value of alternative input property
// combinations: with every shared order offered, an ORDER BY on a
// non-leading column is never more expensive than with the single fixed
// order, and strictly cheaper for at least one column.
func TestAltProps(t *testing.T) {
	points := RunAltProps()
	t.Logf("\n%s", FormatAltProps(points))
	strictly := false
	for _, p := range points {
		if p.WithAlts > p.SingleOrder+1e-9 {
			t.Errorf("order-by col %d: alternatives made the plan worse (%.1f > %.1f)",
				p.OrderByCol, p.WithAlts, p.SingleOrder)
		}
		if p.WithAlts < p.SingleOrder-1e-9 {
			strictly = true
		}
	}
	if !strictly {
		t.Error("alternatives never improved any plan")
	}
}

// TestLeftDeepRestriction: restricting the physical space to left-deep
// trees through implementation-rule condition code never produces a
// cheaper plan than the full bushy space, and the optimizer searches
// fewer physical alternatives.
func TestLeftDeepRestriction(t *testing.T) {
	cfg := quick()
	points := RunLeftDeep(cfg)
	t.Logf("\n%s", FormatLeftDeep(points))
	strictly := false
	for _, p := range points {
		if p.BushyCost > p.LeftDeepCost+1e-6*p.LeftDeepCost {
			t.Errorf("rels=%d: bushy plans worse than left-deep (%.1f > %.1f)",
				p.Relations, p.BushyCost, p.LeftDeepCost)
		}
		if p.BushyCost < p.LeftDeepCost-1e-6*p.LeftDeepCost {
			strictly = true
		}
	}
	if !strictly {
		t.Log("note: no query in this sample benefited from bushy shapes")
	}
}

// TestHeuristicTradeoff: restricting the moves pursued per goal must
// never yield a cheaper plan than exhaustive search, and the exhaustive
// configuration never fails.
func TestHeuristicTradeoff(t *testing.T) {
	cfg := quick()
	cfg.MaxRelations = 5
	points := RunHeuristic(cfg)
	t.Logf("\n%s", FormatHeuristic(points))
	exhaustive := map[int]HeuristicPoint{}
	for _, p := range points {
		if p.TopMoves == 0 {
			exhaustive[p.Relations] = p
			if p.Failed != 0 {
				t.Errorf("exhaustive search failed %d queries at %d relations", p.Failed, p.Relations)
			}
		}
	}
	for _, p := range points {
		if p.TopMoves == 0 || p.Failed > 0 {
			continue
		}
		ex := exhaustive[p.Relations]
		if p.MeanCost < ex.MeanCost-1e-6*ex.MeanCost {
			t.Errorf("top-%d at %d relations beat exhaustive search: %.1f < %.1f",
				p.TopMoves, p.Relations, p.MeanCost, ex.MeanCost)
		}
	}
}

// TestSetOpsReordering: cost-based N-way intersection never loses to the
// written order and wins strictly for some N.
func TestSetOpsReordering(t *testing.T) {
	points := RunSetOps()
	t.Logf("\n%s", FormatSetOps(points))
	strictly := false
	for _, p := range points {
		if p.Reordered > p.Frozen+1e-9 {
			t.Errorf("N=%d: reordering produced a worse plan (%.1f > %.1f)", p.N, p.Reordered, p.Frozen)
		}
		if p.Reordered < p.Frozen-1e-9 {
			strictly = true
		}
	}
	if !strictly {
		t.Error("reordering never improved any plan")
	}
}
