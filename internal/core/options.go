package core

import (
	"errors"
	"fmt"
)

// Options tune the search engine. The zero value is the paper's default
// configuration: exhaustive directed dynamic programming with
// branch-and-bound pruning and memoization of both winners and
// failures, unbounded and untraced.
//
// The fields are grouped by facet: Search holds the strategy toggles
// the ablation experiments flip, Guidance the seeded branch-and-bound
// layer, Budget the anytime resource bounds, and Trace observability.
// The toggles exist because the paper places heuristics and search
// control "into the hands of the optimizer implementor": they let
// implementors reproduce weaker strategies (EXODUS- or Starburst-like)
// for comparison.
//
// NewOptimizer validates the configuration and panics on a
// contradictory one; callers accepting user-supplied options should
// call Validate first.
type Options struct {
	// Search selects the search strategy.
	Search SearchOptions
	// Guidance configures guided (seeded) branch-and-bound.
	Guidance GuidanceOptions
	// Budget bounds the resources one optimization call may consume.
	Budget Budget
	// Trace configures search observability.
	Trace TraceOptions
}

// SearchOptions are the search-strategy toggles. The zero value is the
// paper's exhaustive, pruned, memoizing search.
type SearchOptions struct {
	// Workers is ignored: there is one search engine, the recursive
	// FindBestPlan.
	//
	// Deprecated: ignored; remove with bench's core.w2_* probe.
	Workers int
	// NoPruning disables branch-and-bound: every move is pursued to
	// completion regardless of the cost limit.
	NoPruning bool
	// NoFailureMemo disables memoization of optimization failures
	// ("interesting facts ... include failures that can save future
	// optimization effort").
	NoFailureMemo bool
	// GlueMode replaces property-directed search with the Starburst
	// strategy the paper argues against: each class is optimized once
	// without property requirements, and enforcers are glued on top of
	// the winning plan afterwards.
	GlueMode bool
	// NoIncremental disables incremental move collection: every fixpoint
	// iteration of FindBestPlan re-matches all implementation rules
	// against all of a class's expressions and pursues every move again,
	// as the engine originally did. It exists for A/B testing the
	// incremental scheme (the results must be identical) and as a safety
	// valve.
	NoIncremental bool
	// MoveFilter, if non-nil, selects and orders the moves pursued for
	// each optimization goal. It receives a copy of the promise-ordered
	// move list and returns the (possibly trimmed, reordered) list to
	// pursue. Returning a subset makes the search heuristic rather
	// than exhaustive. MoveFilter requires NoIncremental — heuristics
	// must see the complete move list of every iteration, where
	// incremental collection hands over only the moves an iteration
	// adds — and Validate rejects the combination otherwise.
	MoveFilter func(moves []Move) []Move
	// Policy selects the search policy. The zero value is the paper's
	// exhaustive directed dynamic programming; PolicyMCTS and
	// PolicyWidening replace it with budgeted stochastic search over the
	// same memo: episodes that pursue one move per goal instead of all
	// of them, committing completed sub-plans into the ordinary winner
	// tables so anytime fallback, budgets, tracing, and Stats keep
	// their contracts. A stochastic policy cannot prove that no plan
	// exists: where the exhaustive engine returns (nil, nil) as proof
	// of absence, a policy run returns the best vetted fallback plan
	// instead, and returns nil only when not even a fallback exists.
	// Policies require incremental move collection; Validate rejects
	// other combinations.
	Policy SearchPolicy
	// RandSeed seeds the stochastic policy's random stream. Runs with
	// equal seeds (and no wall-clock budget) are deterministic:
	// byte-identical plans and Stats. The zero value is a fixed seed,
	// not a random one, so policy runs are reproducible by default.
	RandSeed int64
	// Episodes bounds the number of rollout episodes a stochastic
	// policy runs; values < 1 mean DefaultPolicyEpisodes. Budget bounds
	// (MaxSteps, Timeout) stop the episode loop early with the usual
	// anytime degradation.
	Episodes int
}

// SearchPolicy selects the engine's search policy: exhaustive directed
// dynamic programming, or one of the budgeted stochastic policies built
// for the 10–16-relation regime where exhaustive search exceeds any
// reasonable budget.
type SearchPolicy int8

const (
	// PolicyExhaustive is the paper's complete search (the default).
	PolicyExhaustive SearchPolicy = iota
	// PolicyMCTS selects Monte-Carlo tree search over memo goals: the
	// promise-ordered move list is the action set, rollouts are
	// greedy-seeded (admissible floors as priors) and run to complete
	// plans, and achieved costs back up through a UCT-style selection
	// tree keyed by (class, physical property vector).
	PolicyMCTS
	// PolicyWidening selects iterative widening on the same machinery:
	// each pass widens the considered prefix of every goal's
	// promise-ordered move list by one, pursuing the least-visited move
	// within the prefix. It is deterministic even across RandSeed
	// values — the A/B control for PolicyMCTS.
	PolicyWidening
)

// String renders the policy name as accepted by ParseSearchPolicy.
func (p SearchPolicy) String() string {
	switch p {
	case PolicyExhaustive:
		return "exhaustive"
	case PolicyMCTS:
		return "mcts"
	case PolicyWidening:
		return "widening"
	}
	return fmt.Sprintf("SearchPolicy(%d)", int(p))
}

// ParseSearchPolicy maps a policy name (as rendered by String) to its
// SearchPolicy value; CLI -search-policy flags use it.
func ParseSearchPolicy(s string) (SearchPolicy, error) {
	switch s {
	case "", "exhaustive":
		return PolicyExhaustive, nil
	case "mcts":
		return PolicyMCTS, nil
	case "widening":
		return PolicyWidening, nil
	}
	return PolicyExhaustive, fmt.Errorf("core: unknown search policy %q (want exhaustive, mcts, or widening)", s)
}

// GuidanceOptions configure guided branch-and-bound: a seed planner
// whose plan cost primes the search's cost limit.
type GuidanceOptions struct {
	// SeedPlanner, if non-nil, switches Optimize and OptimizeWithLimit
	// to guided branch-and-bound: the planner produces a cheap complete
	// plan before the exhaustive search runs, and the seed's cost
	// becomes the initial cost limit. The seeded limit is inclusive —
	// an optimal plan costing exactly the seed is never pruned away —
	// and if it proves infeasible (the seed underestimated), the search
	// runs once more at the caller's limit, reusing the winner and
	// failure tables. Guided search returns only plans found by the
	// search engine, never the seed itself, so the returned plan and
	// its cost are identical to an unguided exhaustive run. (The seed
	// plan does serve as the degradation floor when a Budget stops the
	// search — see OptimizeWithLimitCtx.)
	SeedPlanner SeedPlanner
}

// TraceOptions configure search observability.
type TraceOptions struct {
	// Tracer, if non-nil, receives structured search-trace events (see
	// TraceEvent). Use TextTracer or ClassicTracer for the engine's
	// one-line text rendering.
	Tracer Tracer
}

// Validate checks the configuration for contradictions: a MoveFilter
// without NoIncremental, GlueMode combined with a SeedPlanner, or
// negative episode and budget bounds. NewOptimizer panics on an
// invalid configuration; servers accepting user-supplied options should
// validate first and surface the error instead.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.Search.MoveFilter != nil && !o.Search.NoIncremental {
		return errors.New("core: Search.MoveFilter requires Search.NoIncremental — heuristics must see the complete move list of every iteration, where incremental collection hands over only the moves an iteration adds")
	}
	if o.Search.GlueMode && o.Guidance.SeedPlanner != nil {
		return errors.New("core: Search.GlueMode and Guidance.SeedPlanner are mutually exclusive — glue mode optimizes without property-directed limits to guide")
	}
	switch o.Search.Policy {
	case PolicyExhaustive:
	case PolicyMCTS, PolicyWidening:
		if o.Search.GlueMode {
			return errors.New("core: Search.GlueMode and a stochastic Search.Policy are mutually exclusive")
		}
		if o.Search.NoIncremental || o.Search.MoveFilter != nil {
			return errors.New("core: stochastic search policies index incrementally collected move lists; Search.NoIncremental and Search.MoveFilter are incompatible with them")
		}
	default:
		return fmt.Errorf("core: unknown Search.Policy %d", int(o.Search.Policy))
	}
	if o.Search.Episodes < 0 {
		return fmt.Errorf("core: Search.Episodes must not be negative, got %d", o.Search.Episodes)
	}
	if o.Budget.Timeout < 0 {
		return fmt.Errorf("core: Budget.Timeout must not be negative, got %s", o.Budget.Timeout)
	}
	if o.Budget.MaxSteps < 0 {
		return fmt.Errorf("core: Budget.MaxSteps must not be negative, got %d", o.Budget.MaxSteps)
	}
	if o.Budget.MaxMemoBytes < 0 {
		return fmt.Errorf("core: Budget.MaxMemoBytes must not be negative, got %d", o.Budget.MaxMemoBytes)
	}
	if o.Budget.MaxExprs < 0 {
		return fmt.Errorf("core: Budget.MaxExprs must not be negative, got %d", o.Budget.MaxExprs)
	}
	return nil
}

// MoveKind distinguishes the three kinds of moves the optimizer can
// explore at any point.
type MoveKind int8

// The move kinds of the paper's Figure 2. Transformation moves are
// subsumed by group exploration in this engine (equivalent under
// exhaustive search) and reported to MoveFilter for visibility only.
const (
	// MoveAlgorithm applies an implementation rule.
	MoveAlgorithm MoveKind = iota
	// MoveEnforcer applies a property-enforcing physical operator.
	MoveEnforcer
)

// Move is one candidate step for an optimization goal, exposed to the
// MoveFilter heuristic hook.
type Move struct {
	// Kind says whether the move applies an algorithm or an enforcer.
	Kind MoveKind
	// Rule is the implementation rule for MoveAlgorithm moves.
	Rule *ImplRule
	// Alts are the acceptable input property combinations for
	// MoveAlgorithm moves.
	Alts []InputReq
	// Enforcer is the enforcer for MoveEnforcer moves.
	Enforcer *Enforcer

	// match is the class match a MoveAlgorithm move was collected from;
	// the move's floor charge sums the floors of its bound inputs. A
	// MoveFilter selects and orders the moves it is given; it cannot
	// make up algorithm moves.
	match *implMatch
}

// Promise returns the implementation rule's or enforcer's promise; moves
// are pursued in descending promise order.
func (mv *Move) Promise() int {
	if mv.Kind == MoveEnforcer {
		return mv.Enforcer.Promise
	}
	return mv.Rule.Promise
}

// Name returns the implementation rule's or enforcer's name.
func (mv *Move) Name() string {
	if mv.Kind == MoveEnforcer {
		return mv.Enforcer.Name
	}
	return mv.Rule.Name
}

// Stats accumulates search-effort counters for one optimizer run. They
// feed the experiment harness (optimization effort, memory) and the
// consistency checks in the test suite.
type Stats struct {
	// Groups is the number of equivalence classes created.
	Groups int
	// Exprs is the number of distinct logical expressions stored,
	// counting spellings a later merge retired (Memo.ExprCount is the
	// live number).
	Exprs int
	// Merges is the number of class unifications performed.
	Merges int
	// RulesFired counts transformation-rule applications (post
	// condition code).
	RulesFired int
	// Bindings counts pattern-match bindings enumerated.
	Bindings int
	// AlgorithmMoves counts algorithm moves pursued.
	AlgorithmMoves int
	// EnforcerMoves counts enforcer moves pursued.
	EnforcerMoves int
	// Pruned counts moves abandoned by branch-and-bound.
	Pruned int
	// WinnerHits counts goals answered from the winner table.
	WinnerHits int
	// FailureHits counts goals answered from memoized failures.
	FailureHits int
	// MatchCalls counts (expression, implementation-rule) match
	// attempts during move collection. With incremental move collection
	// each pair is matched once per class between merges, for every
	// requirement; the from-scratch engine re-matches every pair on every
	// fixpoint iteration and goal re-activation.
	MatchCalls int
	// MovesReused counts algorithm moves built from class matches that an
	// earlier move collection made — by another goal on the class, or an
	// earlier activation of the same goal — so that building them matched
	// no rule again.
	MovesReused int
	// GoalsOptimized counts goals actually searched.
	GoalsOptimized int
	// ConsistencyViolations counts plans whose delivered physical
	// properties failed to cover the requested vector — the paper's
	// consistency check. Always zero for a correct model.
	ConsistencyViolations int
	// PeakMemoBytes is the largest memo size estimate observed.
	PeakMemoBytes int

	// SeedCost is the cost of the seed plan guided search started from;
	// nil when the run was unguided or the seed planner produced
	// nothing.
	SeedCost Cost
	// LimitStages counts the branch-and-bound stages guided search ran:
	// 1 when the seeded limit sufficed, 2 when the seed lied low and a
	// stage at the caller's limit followed. Under a stochastic policy it
	// is 1 when an empty-handed episode relaxed the root limit to the
	// caller's, else 0.
	LimitStages int
	// GoalsPruned counts goals that completed without finding any plan
	// within their cost limit — the definitive bound-failures a tight
	// initial limit produces (transient failures from cycles or budget
	// stops are not counted).
	GoalsPruned int
	// MovesSkipped counts moves abandoned on their algorithm's or
	// enforcer's local cost alone, before any input was optimized — the
	// cheapest kind of pruning, and the one a seeded limit multiplies.
	MovesSkipped int

	// TasksRun is always zero.
	//
	// Deprecated: always zero; remove with bench's core.w2_* probe.
	TasksRun int
	// TasksParked is always zero.
	//
	// Deprecated: always zero; remove with bench's core.w2_* probe.
	TasksParked int

	// SharedGroups counts equivalence classes reachable from more than
	// one root of a shared-memo batch (OptimizeBatchCtx): exploration
	// work done once instead of per query. Zero outside batches.
	SharedGroups int
	// SharedWinners counts winner plan nodes appearing in more than one
	// root's final plan of a shared-memo batch — the candidate set the
	// Materialize/Reuse post-pass prices. Zero outside batches.
	SharedWinners int

	// SeedFloorCost is the cost of the complete seed plan captured as the
	// anytime degradation floor (SeedPlan.Plan); nil when the seed
	// planner supplied only a cost. When non-nil, a budget-stopped search
	// never returns a plan costing more than this floor.
	SeedFloorCost Cost

	// Episodes counts the rollout episodes a stochastic search policy
	// ran (Options.Search.Policy); zero for exhaustive runs.
	Episodes int
	// RolloutCommits counts sub-plans a stochastic policy's rollouts
	// committed into the memo's winner tables — new winners or
	// improvements over earlier episodes. Zero for exhaustive runs.
	RolloutCommits int

	// StopReason is the typed budget error that stopped the search, or
	// nil when it ran to completion. It explains a degraded (anytime)
	// result: which bound was exhausted.
	StopReason error
	// AnytimeFallback reports that the returned plan came from the
	// degradation path — a previously recorded root winner, the seed
	// plan, or the query as written — rather than from the stopped
	// search activation itself, which returned nothing or a costlier
	// plan.
	AnytimeFallback bool
}

// Steps returns the number of search steps taken: moves pursued, the
// unit Budget.MaxSteps bounds.
func (s *Stats) Steps() int { return s.AlgorithmMoves + s.EnforcerMoves }
