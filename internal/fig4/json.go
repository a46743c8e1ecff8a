package fig4

import (
	"encoding/json"
	"os"
	"sort"
)

// BenchReport is the machine-readable form of a Figure-4 run, written as
// BENCH_fig4.json so regressions can be tracked across commits without
// scraping the human-readable tables.
type BenchReport struct {
	// Config echoes the experiment parameters.
	Config BenchConfig `json:"config"`
	// Points holds one entry per complexity level.
	Points []BenchPoint `json:"points"`
	// Parallel holds the worker-pool throughput sweep, when run.
	Parallel *Sweep `json:"parallel,omitempty"`
	// Cache holds the plan-cache serving measurements, when run.
	Cache *CacheResult `json:"cache,omitempty"`
	// E2E holds the end-to-end optimize-and-execute engine A/B, when run.
	E2E *E2EResult `json:"e2e,omitempty"`
	// MQO holds the shared-memo multi-query optimization A/B, when run.
	MQO *MQOResult `json:"mqo,omitempty"`
	// Serve holds the serving-tier load measurements, when run.
	Serve *ServeResult `json:"serve,omitempty"`
	// Quality holds the stochastic-policy frontier sweep, when run.
	Quality *QualityResult `json:"quality,omitempty"`
}

// BenchConfig is the subset of Config that shapes the measurements.
type BenchConfig struct {
	Seed            int64  `json:"seed"`
	QueriesPerLevel int    `json:"queries_per_level"`
	MinRelations    int    `json:"min_relations"`
	MaxRelations    int    `json:"max_relations"`
	Shape           string `json:"shape"`
}

// BenchPoint is one complexity level in the report.
type BenchPoint struct {
	Relations        int     `json:"relations"`
	Queries          int     `json:"queries"`
	VolcanoMS        float64 `json:"volcano_ms"`
	VolcanoStdDevMS  float64 `json:"volcano_stddev_ms"`
	VolcanoCost      float64 `json:"volcano_plan_cost"`
	VolcanoMemBytes  int     `json:"volcano_memo_bytes"`
	VolcanoGoals     float64 `json:"volcano_goals_optimized"`
	VolcanoMatches   float64 `json:"volcano_match_calls"`
	VolcanoReused    float64 `json:"volcano_moves_reused"`
	VolcanoSeedCost  float64 `json:"volcano_seed_cost,omitempty"`
	VolcanoStages    float64 `json:"volcano_limit_stages,omitempty"`
	VolcanoPruned    float64 `json:"volcano_goals_pruned,omitempty"`
	VolcanoSkipped   float64 `json:"volcano_moves_skipped,omitempty"`
	ExodusMS         float64 `json:"exodus_ms"`
	ExodusStdDevMS   float64 `json:"exodus_stddev_ms"`
	ExodusCost       float64 `json:"exodus_plan_cost"`
	ExodusMemBytes   int     `json:"exodus_memo_bytes"`
	ExodusCompleted  int     `json:"exodus_completed"`
	PlanQualityRatio float64 `json:"plan_quality_ratio"`
}

// NewBenchReport assembles a report from an experiment's inputs and
// outputs. sweep may be nil when the parallel sweep was not run.
func NewBenchReport(cfg Config, points []Point, sweep *Sweep) BenchReport {
	cfg = cfg.Defaults()
	rep := BenchReport{
		Config: BenchConfig{
			Seed:            cfg.Seed,
			QueriesPerLevel: cfg.QueriesPerLevel,
			MinRelations:    cfg.MinRelations,
			MaxRelations:    cfg.MaxRelations,
			Shape:           cfg.Shape.String(),
		},
		Parallel: sweep,
	}
	for _, p := range points {
		rep.Points = append(rep.Points, BenchPoint{
			Relations:        p.Relations,
			Queries:          p.Queries,
			VolcanoMS:        p.VolcanoMS,
			VolcanoStdDevMS:  p.VolcanoStdDevMS,
			VolcanoCost:      p.VolcanoCost,
			VolcanoMemBytes:  p.VolcanoMemBytes,
			VolcanoGoals:     p.VolcanoGoals,
			VolcanoMatches:   p.VolcanoMatchCalls,
			VolcanoReused:    p.VolcanoMovesReused,
			VolcanoSeedCost:  p.VolcanoSeedCost,
			VolcanoStages:    p.VolcanoLimitStages,
			VolcanoPruned:    p.VolcanoGoalsPruned,
			VolcanoSkipped:   p.VolcanoMovesSkipped,
			ExodusMS:         p.ExodusMS,
			ExodusStdDevMS:   p.ExodusStdDevMS,
			ExodusCost:       p.ExodusCost,
			ExodusMemBytes:   p.ExodusMemBytes,
			ExodusCompleted:  p.ExodusCompleted,
			PlanQualityRatio: p.QualityRatio,
		})
	}
	return rep
}

// MergeBenchPoints folds freshly measured per-level points into an
// existing report's points, keyed by the number of relations: a rerun
// level replaces its old entry, new levels extend the curve, and levels
// the rerun did not cover are preserved. This lets a sweep extension
// (say, 9-10 relations) merge into BENCH_fig4.json without repeating
// the cheap levels.
func MergeBenchPoints(old, fresh []BenchPoint) []BenchPoint {
	merged := append([]BenchPoint(nil), old...)
	for _, p := range fresh {
		replaced := false
		for i := range merged {
			if merged[i].Relations == p.Relations {
				merged[i] = p
				replaced = true
				break
			}
		}
		if !replaced {
			merged = append(merged, p)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Relations < merged[j].Relations })
	return merged
}

// ReadBenchJSON loads a previously written report, so a run of one
// experiment can preserve the sections of experiments it did not rerun.
func ReadBenchJSON(path string) (BenchReport, error) {
	var rep BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

// WriteBenchJSON writes the report to path, indented for diffing.
func WriteBenchJSON(path string, rep BenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
