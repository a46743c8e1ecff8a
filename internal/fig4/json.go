package fig4

import (
	"encoding/json"
	"os"
	"runtime"
)

// BenchReport is the machine-readable form of a Figure-4 run, written as
// BENCH_fig4.json so regressions can be tracked across commits without
// scraping the human-readable tables. Each run writes the whole file:
// every level it holds was measured by the run its environment names.
type BenchReport struct {
	// Env records where the run measured.
	Env BenchEnv `json:"env"`
	// Config echoes the experiment parameters.
	Config BenchConfig `json:"config"`
	// Points holds one entry per complexity level.
	Points []BenchPoint `json:"points"`
}

// BenchEnv is the environment of a run: the commit measured, the Go
// version, GOMAXPROCS and the number of CPUs.
type BenchEnv struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
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
// outputs, measured at commit.
func NewBenchReport(commit string, cfg Config, points []Point) BenchReport {
	cfg = cfg.Defaults()
	rep := BenchReport{
		Env: BenchEnv{
			Commit:     commit,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Config: BenchConfig{
			Seed:            cfg.Seed,
			QueriesPerLevel: cfg.QueriesPerLevel,
			MinRelations:    cfg.MinRelations,
			MaxRelations:    cfg.MaxRelations,
			Shape:           cfg.Shape.String(),
		},
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

// WriteBenchJSON writes the report to path, indented for diffing.
func WriteBenchJSON(path string, rep BenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
