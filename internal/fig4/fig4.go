// Package fig4 reproduces the evaluation of the Volcano paper: Figure 4,
// "Exhaustive Optimization Performance", compares optimizers generated
// by the Volcano and EXODUS optimizer generators on relational
// select-join queries with 1 to 7 binary joins (2 to 8 input relations),
// 50 queries per complexity level, reporting average optimization time
// (the figure's solid lines) and average estimated execution time of the
// produced plans (the dashed lines). It also hosts the ablation
// experiments for the search-engine mechanisms the paper credits:
// branch-and-bound pruning, failure memoization, and property-directed
// search versus Starburst-style glue.
package fig4

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exodus"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// Config parameterizes an experiment run. The zero value is completed
// by Defaults to the paper's setup.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// QueriesPerLevel is the number of random queries per complexity
	// level; the paper used 50.
	QueriesPerLevel int
	// MinRelations and MaxRelations bound the query sizes; the paper
	// used 2 to 8 input relations.
	MinRelations, MaxRelations int
	// Shape is the join-graph topology of generated queries.
	Shape datagen.Shape
	// ExodusMaxNodes bounds the baseline's MESH (memory aborts).
	ExodusMaxNodes int
	// ExodusTimeout bounds the baseline's per-query time.
	ExodusTimeout time.Duration
}

// Defaults fills unset fields with the paper's parameters.
func (c Config) Defaults() Config {
	if c.QueriesPerLevel == 0 {
		c.QueriesPerLevel = 50
	}
	if c.MinRelations == 0 {
		c.MinRelations = 2
	}
	if c.MaxRelations == 0 {
		c.MaxRelations = 8
	}
	if c.ExodusMaxNodes == 0 {
		c.ExodusMaxNodes = 1 << 20
	}
	if c.ExodusTimeout == 0 {
		c.ExodusTimeout = 30 * time.Second
	}
	return c
}

// Point is one complexity level of Figure 4.
type Point struct {
	// Relations is the number of input relations (joins + 1).
	Relations int
	// Queries is the number of queries attempted.
	Queries int
	// VolcanoMS and ExodusMS are mean optimization times in
	// milliseconds, over queries both engines completed.
	VolcanoMS, ExodusMS float64
	// VolcanoCost and ExodusCost are mean estimated plan execution
	// costs (same cost model), over queries both engines completed.
	VolcanoCost, ExodusCost float64
	// QualityRatio is the mean of per-query ExodusCost/VolcanoCost.
	QualityRatio float64
	// ExodusCompleted counts baseline runs that finished within the
	// node and time budgets; the paper plots only completed runs.
	ExodusCompleted int
	// VolcanoMemBytes and ExodusMemBytes are mean working-set
	// estimates.
	VolcanoMemBytes, ExodusMemBytes int
	// VolcanoStdDevMS and ExodusStdDevMS are the optimization-time
	// standard deviations; the paper notes the EXODUS measurements
	// were "quite volatile".
	VolcanoStdDevMS, ExodusStdDevMS float64
	// VolcanoGoals, VolcanoMatchCalls, and VolcanoMovesReused are mean
	// search-effort counters: goals optimized, implementation-rule match
	// attempts, and moves built from earlier-made class matches per query
	// (Stats.MovesReused). The
	// match-call mean quantifies the rule-matching work the incremental
	// move collection avoids.
	VolcanoGoals, VolcanoMatchCalls, VolcanoMovesReused float64
	// VolcanoSeedCost is the mean greedy-seed cost. VolcanoLimitStages,
	// VolcanoGoalsPruned, and VolcanoMovesSkipped are the guided-search
	// telemetry means: limit stages used, goals refuted by the bound, and
	// moves abandoned before their inputs were optimized.
	VolcanoSeedCost                                             float64
	VolcanoLimitStages, VolcanoGoalsPruned, VolcanoMovesSkipped float64
}

// Run executes the Figure-4 experiment and returns one point per
// complexity level.
func Run(cfg Config) []Point {
	cfg = cfg.Defaults()
	src := datagen.New(cfg.Seed)
	cat := src.Catalog(cfg.MaxRelations)

	// The production configuration seeds the search with the greedy
	// join-ordering planner; the planner closure is shared across
	// queries (it is stateless beyond catalog statistics). Guidance never
	// changes plan costs, only search effort (TestGuidedMatchesUnguided).
	volOpts := &core.Options{
		Guidance: core.GuidanceOptions{
			SeedPlanner: relopt.New(cat, relopt.DefaultConfig()).SeedPlanner(),
		},
	}

	var points []Point
	for n := cfg.MinRelations; n <= cfg.MaxRelations; n++ {
		pt := Point{Relations: n, Queries: cfg.QueriesPerLevel}
		var volCost, exoCost, ratio float64
		var volSamples, exoSamples []float64
		var volMem, exoMem, completed int
		var volGoals, volMatches, volReused int
		var volSeed, volStages, volPruned, volSkipped float64
		for q := 0; q < cfg.QueriesPerLevel; q++ {
			query := src.SelectJoinQuery(cat, n, cfg.Shape)

			// Volcano completes every test query (the paper: exhaustive
			// search "for all test queries" within 1 MB), so its means
			// cover the whole level even when the baseline aborts.
			vms, vcost, vstats, err := MeasureVolcano(cat, query, volOpts)
			if err != nil {
				panic(fmt.Sprintf("fig4: volcano failed on %d relations: %v", n, err))
			}
			volSamples = append(volSamples, vms)
			volCost += vcost
			volMem += vstats.PeakMemoBytes
			volGoals += vstats.GoalsOptimized
			volMatches += vstats.MatchCalls
			volReused += vstats.MovesReused
			if sc, ok := vstats.SeedCost.(relopt.Cost); ok {
				volSeed += sc.Total()
			}
			volStages += float64(vstats.LimitStages)
			volPruned += float64(vstats.GoalsPruned)
			volSkipped += float64(vstats.MovesSkipped)

			ems, ecost, estats, err := MeasureExodus(cat, query, cfg)
			if err != nil {
				continue // aborted baseline run: excluded, as in the paper
			}
			completed++
			exoSamples = append(exoSamples, ems)
			exoCost += ecost
			ratio += ecost / vcost
			exoMem += estats.MemoryBytes
		}
		if nq := len(volSamples); nq > 0 {
			f := float64(nq)
			pt.VolcanoMS, pt.VolcanoStdDevMS = meanStdDev(volSamples)
			pt.VolcanoCost = volCost / f
			pt.VolcanoMemBytes = volMem / nq
			pt.VolcanoGoals = float64(volGoals) / f
			pt.VolcanoMatchCalls = float64(volMatches) / f
			pt.VolcanoMovesReused = float64(volReused) / f
			pt.VolcanoSeedCost = volSeed / f
			pt.VolcanoLimitStages = volStages / f
			pt.VolcanoGoalsPruned = volPruned / f
			pt.VolcanoMovesSkipped = volSkipped / f
		}
		if completed > 0 {
			f := float64(completed)
			pt.ExodusMS, pt.ExodusStdDevMS = meanStdDev(exoSamples)
			pt.ExodusCost = exoCost / f
			pt.QualityRatio = ratio / f
			pt.ExodusMemBytes = exoMem / completed
		}
		pt.ExodusCompleted = completed
		points = append(points, pt)
	}
	return points
}

// meanStdDev reduces samples to their mean and standard deviation.
func meanStdDev(samples []float64) (mean, sd float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		sd += (s - mean) * (s - mean)
	}
	return mean, math.Sqrt(sd / float64(len(samples)))
}

// MeasureVolcano optimizes one query with a Volcano-generated optimizer
// and returns wall milliseconds, estimated plan cost, and search stats.
// The query's ORDER BY column becomes the required physical property
// vector of the optimization goal.
func MeasureVolcano(cat *rel.Catalog, query datagen.Query, opts *core.Options) (float64, float64, core.Stats, error) {
	model := relopt.New(cat, relopt.DefaultConfig())
	opt := core.NewOptimizer(model, opts)
	root := opt.InsertQuery(query.Root)
	var required core.PhysProps
	if query.OrderBy != rel.InvalidCol {
		required = relopt.SortedOn(query.OrderBy)
	}
	start := time.Now()
	plan, err := opt.Optimize(root, required)
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, *opt.Stats(), err
	}
	if plan == nil {
		return 0, 0, *opt.Stats(), fmt.Errorf("fig4: no plan")
	}
	return float64(elapsed.Nanoseconds()) / 1e6, plan.Cost.(relopt.Cost).Total(), *opt.Stats(), nil
}

// MeasureExodus optimizes one query with the EXODUS-style baseline,
// which glues a final sort on when the incidental output order misses
// the ORDER BY requirement.
func MeasureExodus(cat *rel.Catalog, query datagen.Query, cfg Config) (float64, float64, exodus.Stats, error) {
	opt := exodus.New(cat, exodus.Config{
		MaxNodes: cfg.ExodusMaxNodes,
		Timeout:  cfg.ExodusTimeout,
	})
	start := time.Now()
	_, cost, err := opt.Optimize(query.Root, query.OrderBy)
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, opt.Stats(), err
	}
	return float64(elapsed.Nanoseconds()) / 1e6, cost.Total(), opt.Stats(), nil
}

// Format renders the points as the two series of Figure 4 plus the
// repository's additional columns (quality ratio, memory, completion).
func Format(points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — Exhaustive Optimization Performance (means over completed runs)\n")
	fmt.Fprintf(&b, "%-5s %12s %18s %8s %14s %14s %8s %8s %10s %10s\n",
		"rels", "volcano-ms", "exodus-ms (±sd)", "time-x",
		"volcano-cost", "exodus-cost", "plan-x", "done", "vol-mem", "exo-mem")
	for _, p := range points {
		timeRatio := 0.0
		if p.VolcanoMS > 0 {
			timeRatio = p.ExodusMS / p.VolcanoMS
		}
		exo := fmt.Sprintf("%.3f ±%.1f", p.ExodusMS, p.ExodusStdDevMS)
		fmt.Fprintf(&b, "%-5d %12.3f %18s %7.1fx %14.1f %14.1f %7.2fx %5d/%-2d %9dB %9dB\n",
			p.Relations, p.VolcanoMS, exo, timeRatio,
			p.VolcanoCost, p.ExodusCost, p.QualityRatio,
			p.ExodusCompleted, p.Queries, p.VolcanoMemBytes, p.ExodusMemBytes)
	}
	return b.String()
}
