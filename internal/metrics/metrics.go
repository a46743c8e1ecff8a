// Package metrics is the one JSON-stable observability schema for the
// serving stack. It merges the three counter families the repository
// grew separately — the optimizer's core.Stats, the plan cache's
// plancache.Counters, and the executor's exec.Counters — into a single
// Snapshot, so the volcano-serve /metrics endpoint and the repl's \stats
// command render the same struct instead of hand-rolled dumps.
//
// core.Stats itself is not JSON-stable (it carries a Cost interface
// and error values); Search is its wire projection, with costs and
// stop reasons rendered as strings and per-run booleans widened to
// cumulative counts so snapshots aggregate across requests.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plancache"
)

// Snapshot is one observability snapshot. Sections a producer does not
// track are nil and omitted from the JSON rendering.
type Snapshot struct {
	// Search aggregates optimizer search counters.
	Search *Search `json:"search,omitempty"`
	// Cache is the plan cache's counter snapshot.
	Cache *plancache.Counters `json:"cache,omitempty"`
	// Exec is the executor's cumulative counter snapshot.
	Exec *exec.Counters `json:"exec,omitempty"`
	// Serve is the daemon's admission and latency section, filled only
	// by volcano-serve.
	Serve *Serve `json:"serve,omitempty"`
}

// Search is the JSON-stable projection of core.Stats. Counter fields
// sum across optimizations (see Merge), so the same schema serves one
// repl query and a daemon's lifetime total.
type Search struct {
	Optimizations int64 `json:"optimizations"`

	Groups        int64 `json:"groups"`
	Exprs         int64 `json:"exprs"`
	Merges        int64 `json:"merges"`
	PeakMemoBytes int64 `json:"peak_memo_bytes"`

	MatchCalls  int64 `json:"match_calls"`
	Bindings    int64 `json:"bindings"`
	RulesFired  int64 `json:"rules_fired"`
	MovesReused int64 `json:"moves_reused"`

	GoalsOptimized int64 `json:"goals_optimized"`
	AlgorithmMoves int64 `json:"algorithm_moves"`
	EnforcerMoves  int64 `json:"enforcer_moves"`
	Pruned         int64 `json:"pruned"`
	MovesSkipped   int64 `json:"moves_skipped"`
	WinnerHits     int64 `json:"winner_hits"`
	FailureHits    int64 `json:"failure_hits"`
	GoalsPruned    int64 `json:"goals_pruned"`

	// Episodes / RolloutCommits count stochastic-policy work: completed
	// rollout episodes and winners that rollouts committed into the
	// memo. Zero for exhaustive searches and omitted from the JSON.
	Episodes       int64 `json:"episodes,omitempty"`
	RolloutCommits int64 `json:"rollout_commits,omitempty"`

	SharedGroups  int64 `json:"shared_groups"`
	SharedWinners int64 `json:"shared_winners"`

	// SeedCost is the last guided run's seed-plan cost rendering;
	// empty for unguided runs.
	SeedCost    string `json:"seed_cost,omitempty"`
	LimitStages int64  `json:"limit_stages"`

	ConsistencyViolations int64 `json:"consistency_violations"`

	// CacheHits / Coalesced / Degraded / AnytimeFallbacks count
	// optimizations by how they were served: from the plan cache, by
	// sharing an in-flight identical search, stopped by a budget, and
	// answered by the anytime fallback ladder. FromStats sets each to
	// 0 or 1; Merge makes them cumulative.
	CacheHits        int64 `json:"cache_hits"`
	Coalesced        int64 `json:"coalesced"`
	Degraded         int64 `json:"degraded"`
	AnytimeFallbacks int64 `json:"anytime_fallbacks"`
	// LastStopReason renders the most recent budget stop, if any.
	LastStopReason string `json:"last_stop_reason,omitempty"`
}

// FromStats projects one optimization's counters.
func FromStats(s core.Stats) *Search {
	out := &Search{
		Optimizations: 1,
		Groups:        int64(s.Groups),
		Exprs:         int64(s.Exprs),
		Merges:        int64(s.Merges),
		PeakMemoBytes: int64(s.PeakMemoBytes),

		MatchCalls:  int64(s.MatchCalls),
		Bindings:    int64(s.Bindings),
		RulesFired:  int64(s.RulesFired),
		MovesReused: int64(s.MovesReused),

		GoalsOptimized: int64(s.GoalsOptimized),
		AlgorithmMoves: int64(s.AlgorithmMoves),
		EnforcerMoves:  int64(s.EnforcerMoves),
		Pruned:         int64(s.Pruned),
		MovesSkipped:   int64(s.MovesSkipped),
		WinnerHits:     int64(s.WinnerHits),
		FailureHits:    int64(s.FailureHits),
		GoalsPruned:    int64(s.GoalsPruned),

		Episodes:       int64(s.Episodes),
		RolloutCommits: int64(s.RolloutCommits),

		SharedGroups:  int64(s.SharedGroups),
		SharedWinners: int64(s.SharedWinners),

		LimitStages: int64(s.LimitStages),

		ConsistencyViolations: int64(s.ConsistencyViolations),
	}
	if s.SeedCost != nil {
		out.SeedCost = s.SeedCost.String()
	}
	if s.CacheHit {
		out.CacheHits = 1
	}
	if s.Coalesced {
		out.Coalesced = 1
	}
	if s.StopReason != nil {
		out.Degraded = 1
		out.LastStopReason = s.StopReason.Error()
	}
	if s.AnytimeFallback {
		out.AnytimeFallbacks = 1
	}
	return out
}

// Merge folds another projection into the receiver: counters sum, and
// the string fields keep the most recent non-empty value.
func (a *Search) Merge(b *Search) {
	a.Optimizations += b.Optimizations
	a.Groups += b.Groups
	a.Exprs += b.Exprs
	a.Merges += b.Merges
	if b.PeakMemoBytes > a.PeakMemoBytes {
		a.PeakMemoBytes = b.PeakMemoBytes
	}
	a.MatchCalls += b.MatchCalls
	a.Bindings += b.Bindings
	a.RulesFired += b.RulesFired
	a.MovesReused += b.MovesReused
	a.GoalsOptimized += b.GoalsOptimized
	a.AlgorithmMoves += b.AlgorithmMoves
	a.EnforcerMoves += b.EnforcerMoves
	a.Pruned += b.Pruned
	a.MovesSkipped += b.MovesSkipped
	a.WinnerHits += b.WinnerHits
	a.FailureHits += b.FailureHits
	a.GoalsPruned += b.GoalsPruned
	a.Episodes += b.Episodes
	a.RolloutCommits += b.RolloutCommits
	a.SharedGroups += b.SharedGroups
	a.SharedWinners += b.SharedWinners
	if b.SeedCost != "" {
		a.SeedCost = b.SeedCost
	}
	a.LimitStages += b.LimitStages
	a.ConsistencyViolations += b.ConsistencyViolations
	a.CacheHits += b.CacheHits
	a.Coalesced += b.Coalesced
	a.Degraded += b.Degraded
	a.AnytimeFallbacks += b.AnytimeFallbacks
	if b.LastStopReason != "" {
		a.LastStopReason = b.LastStopReason
	}
}

// Serve is the daemon's admission-control and latency section.
type Serve struct {
	// Capacity is the admission controller's concurrency limit;
	// Inflight is the number of requests currently admitted.
	Capacity int   `json:"capacity"`
	Inflight int64 `json:"inflight"`
	// Admitted counts requests that obtained a slot; DegradedAdmits
	// counts the subset admitted under pressure with a clamped
	// optimization budget; Shed counts requests refused with 503;
	// Canceled counts requests whose client went away mid-flight;
	// Errors counts statement failures (parse errors, execution
	// errors).
	Admitted       int64 `json:"admitted"`
	DegradedAdmits int64 `json:"degraded_admits"`
	Shed           int64 `json:"shed"`
	Canceled       int64 `json:"canceled"`
	Errors         int64 `json:"errors"`
	// Endpoints holds per-endpoint request latency, keyed by path.
	Endpoints map[string]*Endpoint `json:"endpoints,omitempty"`
}

// Endpoint is one endpoint's cumulative serving record.
type Endpoint struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Degraded  int64   `json:"degraded"`
	CacheHits int64   `json:"cache_hits"`
	Latency   Latency `json:"latency"`
}

// Format renders the snapshot as the aligned text block the repl's
// \stats command (and any operator hitting /metrics with curl | jq -r)
// shows. Sections follow the struct: search, cache, exec, serve.
func (s *Snapshot) Format() string {
	var b strings.Builder
	if v := s.Search; v != nil {
		fmt.Fprintf(&b, "search:    %d optimization(s)\n", v.Optimizations)
		fmt.Fprintf(&b, "memo:      %d classes, %d expressions, %d merges, peak %d bytes\n",
			v.Groups, v.Exprs, v.Merges, v.PeakMemoBytes)
		fmt.Fprintf(&b, "rules:     %d match calls, %d bindings, %d fired, %d moves reused\n",
			v.MatchCalls, v.Bindings, v.RulesFired, v.MovesReused)
		fmt.Fprintf(&b, "effort:    %d goals, %d steps (%d algorithm + %d enforcer), %d pruned, %d skipped\n",
			v.GoalsOptimized, v.AlgorithmMoves+v.EnforcerMoves, v.AlgorithmMoves, v.EnforcerMoves, v.Pruned, v.MovesSkipped)
		fmt.Fprintf(&b, "lookups:   %d winner hits, %d failure hits, %d goals failed in-limit\n",
			v.WinnerHits, v.FailureHits, v.GoalsPruned)
		fmt.Fprintf(&b, "sharing:   %d shared classes, %d shared winner nodes\n",
			v.SharedGroups, v.SharedWinners)
		if v.Episodes > 0 {
			fmt.Fprintf(&b, "policy:    %d episode(s), %d rollout commit(s)\n",
				v.Episodes, v.RolloutCommits)
		}
		if v.SeedCost != "" {
			fmt.Fprintf(&b, "guidance:  seed cost %s, %d limit stage(s)\n", v.SeedCost, v.LimitStages)
		}
		if v.ConsistencyViolations > 0 {
			fmt.Fprintf(&b, "CONSISTENCY VIOLATIONS: %d\n", v.ConsistencyViolations)
		}
		if v.CacheHits > 0 || v.Coalesced > 0 {
			fmt.Fprintf(&b, "served:    %d plan-cache hit(s), %d coalesced\n", v.CacheHits, v.Coalesced)
		}
		if v.Degraded > 0 {
			fmt.Fprintf(&b, "degraded:  %d budget stop(s), %d anytime fallback(s), last: %s\n",
				v.Degraded, v.AnytimeFallbacks, v.LastStopReason)
		}
	}
	if v := s.Cache; v != nil {
		fmt.Fprintf(&b, "cache:     %d hits, %d misses, %d coalesced, %d evictions\n",
			v.CacheHits, v.CacheMisses, v.Coalesced, v.Evictions)
		fmt.Fprintf(&b, "           %d entries, %d bytes resident\n", v.Entries, v.CacheBytes)
	}
	if v := s.Exec; v != nil {
		fmt.Fprintf(&b, "exec:      %d queries run, %d rows returned, %d errors\n",
			v.Queries, v.Rows, v.Errors)
	}
	if v := s.Serve; v != nil {
		fmt.Fprintf(&b, "serve:     %d/%d slots in use, %d admitted (%d degraded), %d shed, %d canceled, %d errors\n",
			v.Inflight, v.Capacity, v.Admitted, v.DegradedAdmits, v.Shed, v.Canceled, v.Errors)
		paths := make([]string, 0, len(v.Endpoints))
		for path := range v.Endpoints {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			e := v.Endpoints[path]
			fmt.Fprintf(&b, "  %-9s %d requests, p50 %dµs, p95 %dµs, p99 %dµs, max %dµs\n",
				path, e.Requests, e.Latency.P50US, e.Latency.P95US, e.Latency.P99US, e.Latency.MaxUS)
		}
	}
	return b.String()
}
