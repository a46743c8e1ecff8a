package core

import "fmt"

// TraceEventKind identifies what a TraceEvent reports.
type TraceEventKind uint8

// The trace event kinds, covering the lifecycle of an optimization
// goal, the fate of each move, and the control decisions of the guided
// and budgeted layers.
const (
	// TraceGoalBegin marks the start of one FindBestPlan activation.
	TraceGoalBegin TraceEventKind = iota
	// TraceGoalEnd marks the end of the activation; Cost is set when a
	// winner was recorded.
	TraceGoalEnd
	// TraceMovePursued reports a move being pursued.
	TraceMovePursued
	// TraceMovePruned reports a move abandoned by branch-and-bound
	// after some of its inputs were costed.
	TraceMovePruned
	// TraceMoveSkipped reports a move abandoned on its local cost
	// alone, before any input was optimized.
	TraceMoveSkipped
	// TraceWinner reports an optimal plan recorded in the winner table.
	TraceWinner
	// TraceFailure reports a memoized optimization failure.
	TraceFailure
	// TraceViolation reports the paper's consistency check failing: a
	// plan's delivered physical properties did not cover the request.
	TraceViolation
	// TraceLimitStage reports guided search entering a cost-limit stage.
	TraceLimitStage
	// TraceBudgetStop reports the search stopping on a budget bound or
	// cancellation; Err carries the typed budget error.
	TraceBudgetStop
	// TracePolicyEpisode reports a stochastic search policy completing
	// one rollout episode: Stage is the 1-based episode number, Steps
	// the cumulative search steps, and Cost/Plan the best complete root
	// plan known so far (nil when no episode has completed one yet).
	TracePolicyEpisode
)

// String names the event kind.
func (k TraceEventKind) String() string {
	switch k {
	case TraceGoalBegin:
		return "goal-begin"
	case TraceGoalEnd:
		return "goal-end"
	case TraceMovePursued:
		return "move-pursued"
	case TraceMovePruned:
		return "move-pruned"
	case TraceMoveSkipped:
		return "move-skipped"
	case TraceWinner:
		return "winner"
	case TraceFailure:
		return "failure"
	case TraceViolation:
		return "violation"
	case TraceLimitStage:
		return "limit-stage"
	case TraceBudgetStop:
		return "budget-stop"
	case TracePolicyEpisode:
		return "policy-episode"
	}
	return fmt.Sprintf("TraceEventKind(%d)", uint8(k))
}

// TraceEvent is one structured search-trace event. Which fields are
// populated depends on Kind; unset fields are zero. Events are only
// valid for the duration of the Trace call — Plan in particular aliases
// live search state and must not be mutated.
type TraceEvent struct {
	// Kind says what happened.
	Kind TraceEventKind
	// Group is the equivalence class the event concerns.
	Group GroupID
	// Required is the goal's required physical property vector.
	Required PhysProps
	// Excluded is the goal's excluding vector (enforcer-input goals).
	Excluded PhysProps
	// Delivered is the offending delivered vector of a violation.
	Delivered PhysProps
	// Limit is the goal's or stage's cost limit.
	Limit Cost
	// Cost is the recorded winner's cost.
	Cost Cost
	// Plan is the recorded winner's plan.
	Plan *Plan
	// Move names the implementation rule or enforcer of a move event
	// or violation.
	Move string
	// MoveKind distinguishes algorithm from enforcer move events.
	MoveKind MoveKind
	// Stage is the 1-based guided-search stage number.
	Stage int
	// Steps is the number of search steps taken when a budget stop hit.
	Steps int
	// Err is the typed budget error of a budget stop.
	Err error
}

// Tracer receives structured search-trace events. Implementations must
// be cheap: the engine calls Trace synchronously from the innermost
// search loops. A Tracer in an Options value shared by concurrent
// optimizers (vdb serves concurrent requests from one Options) must be
// safe for concurrent use.
type Tracer interface {
	Trace(ev TraceEvent)
}

// FormatTraceEvent renders an event as the engine's classic one-line
// text form. Winner, failure, and violation lines are byte-identical to
// the printf-style traces earlier versions emitted, so tooling that
// scrapes them keeps working.
func FormatTraceEvent(ev TraceEvent) string {
	switch ev.Kind {
	case TraceGoalBegin:
		return fmt.Sprintf("goal group=%d props=%s limit=%s", ev.Group, ev.Required, ev.Limit)
	case TraceGoalEnd:
		if ev.Cost != nil {
			return fmt.Sprintf("goal-end group=%d props=%s cost=%s", ev.Group, ev.Required, ev.Cost)
		}
		return fmt.Sprintf("goal-end group=%d props=%s (no plan)", ev.Group, ev.Required)
	case TraceMovePursued:
		return fmt.Sprintf("pursue %s %s group=%d", moveKindWord(ev.MoveKind), ev.Move, ev.Group)
	case TraceMovePruned:
		return fmt.Sprintf("prune %s %s group=%d", moveKindWord(ev.MoveKind), ev.Move, ev.Group)
	case TraceMoveSkipped:
		return fmt.Sprintf("skip %s %s group=%d (local cost breaks limit)", moveKindWord(ev.MoveKind), ev.Move, ev.Group)
	case TraceWinner:
		return fmt.Sprintf("winner group=%d props=%s cost=%s plan=%s", ev.Group, ev.Required, ev.Cost, ev.Plan)
	case TraceFailure:
		return fmt.Sprintf("failure group=%d props=%s limit=%s", ev.Group, ev.Required, ev.Limit)
	case TraceViolation:
		return fmt.Sprintf("consistency violation: %s %s delivered %s for required %s",
			moveKindWord(ev.MoveKind), ev.Move, ev.Delivered, ev.Required)
	case TraceLimitStage:
		return fmt.Sprintf("stage %d limit=%s", ev.Stage, ev.Limit)
	case TraceBudgetStop:
		return fmt.Sprintf("budget stop: %v after %d steps", ev.Err, ev.Steps)
	case TracePolicyEpisode:
		if ev.Cost != nil {
			return fmt.Sprintf("episode %d best=%s steps=%d", ev.Stage, ev.Cost, ev.Steps)
		}
		return fmt.Sprintf("episode %d (no complete plan yet) steps=%d", ev.Stage, ev.Steps)
	}
	return fmt.Sprintf("%s group=%d", ev.Kind, ev.Group)
}

// moveKindWord is the word the classic trace lines use for a move kind.
func moveKindWord(k MoveKind) string {
	if k == MoveEnforcer {
		return "enforcer"
	}
	return "rule"
}

// textTracer renders selected events through FormatTraceEvent.
type textTracer struct {
	emit func(line string)
	mask uint32
}

func (t *textTracer) Trace(ev TraceEvent) {
	if t.mask&(1<<uint(ev.Kind)) != 0 {
		t.emit(FormatTraceEvent(ev))
	}
}

// TextTracer adapts a line sink into a Tracer using FormatTraceEvent.
// With no kinds listed every event is rendered; otherwise only events
// of the listed kinds are.
func TextTracer(emit func(line string), kinds ...TraceEventKind) Tracer {
	t := &textTracer{emit: emit}
	if len(kinds) == 0 {
		t.mask = ^uint32(0)
	} else {
		for _, k := range kinds {
			t.mask |= 1 << uint(k)
		}
	}
	return t
}

// ClassicTracer is the text adapter preserving the engine's historical
// trace output: only winner, failure, and violation events, in their
// original printf formats. volcano-explain and volcano-repl use it for
// their -trace modes.
func ClassicTracer(emit func(line string)) Tracer {
	return TextTracer(emit, TraceWinner, TraceFailure, TraceViolation)
}
