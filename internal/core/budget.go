package core

import (
	"context"
	"time"
)

// Budget bounds the resources one optimization call may consume. The
// zero value means unbounded: the search runs to completion exactly as
// the paper describes, and no budget checkpoints are armed at all. A
// production compile server sets one or more bounds so a pathological
// query degrades into a good-enough plan instead of stalling the server
// — see the anytime return contract on OptimizeWithLimitCtx.
//
// Budgets are re-armed per call: Timeout measures from call entry, and
// MaxSteps counts the moves of that call. MaxExprs and MaxMemoBytes
// bound the memo itself, which persists across calls on one Optimizer.
type Budget struct {
	// Timeout bounds the wall-clock duration of one Optimize / Explore
	// call; exceeding it stops the search with ErrDeadline. A deadline
	// carried by the call's context is honored independently. Zero
	// means no time bound.
	Timeout time.Duration
	// MaxSteps bounds the number of search steps — moves pursued, i.e.
	// algorithm and enforcer pursuits (Stats.Steps) — after which the
	// search stops with ErrStepBudget. Zero means unbounded.
	MaxSteps int
	// MaxMemoBytes bounds the memo's estimated working-set size
	// (Memo.MemoryBytes); exceeding it stops the search with
	// ErrMemoBudget. Zero means unbounded.
	MaxMemoBytes int
	// MaxExprs bounds the number of distinct logical expressions in the
	// memo; exceeding it stops the search with ErrMemoBudget. Zero
	// means unbounded. This is the exact per-expression bound the memo
	// enforces on every insertion; MaxMemoBytes is its byte-granular,
	// amortized companion.
	MaxExprs int
}

// isZero reports whether no bound is set.
func (b Budget) isZero() bool { return b == Budget{} }

// budgetPollInterval is the amortization factor of the checkpoints: the
// comparatively expensive poll (context check, clock read, memo size
// estimate) runs once per this many cheap counter ticks. Move pursuits
// and memo insertions are each a tick, so at any point of the search a
// poll is at most 64 units of work away — prompt cancellation — while
// the common no-budget case pays a single nil check per unit.
const budgetPollInterval = 64

// budgetState is the armed form of a Budget: one optimization call's
// countdown. It is shared by the Optimizer (which charges pursued moves
// through step) and its Memo (which ticks on insertions and exploration
// attempts, the units of work that dominate when a search is stuck
// expanding rather than costing).
type budgetState struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	maxSteps    int
	maxBytes    int
	memo        *Memo

	steps int
	ticks uint
}

// armBudget installs the budget checkpoints for one optimization call,
// or disarms them when neither the context nor the Options set any
// bound — the zero-budget fast path costs exactly one nil check per
// checkpoint site. MaxExprs needs no checkpoint: the memo enforces it
// exactly on every insertion.
func (o *Optimizer) armBudget(ctx context.Context) {
	b := o.opts.Budget
	cancelable := ctx != nil && ctx.Done() != nil
	if !cancelable && b.Timeout <= 0 && b.MaxSteps <= 0 && b.MaxMemoBytes <= 0 {
		o.bud = nil
		o.memo.bud = nil
		return
	}
	bs := &budgetState{maxSteps: b.MaxSteps, maxBytes: b.MaxMemoBytes, memo: o.memo}
	if cancelable {
		bs.ctx = ctx
	}
	if b.Timeout > 0 {
		bs.deadline = time.Now().Add(b.Timeout)
		bs.hasDeadline = true
	}
	o.bud = bs
	o.memo.bud = bs
}

// step charges one pursued move against the budget. The step bound is
// exact — the first move past MaxSteps is refused — while the other
// bounds are polled at the amortized interval.
func (bs *budgetState) step() error {
	bs.steps++
	if bs.maxSteps > 0 && bs.steps > bs.maxSteps {
		return ErrStepBudget
	}
	return bs.tick()
}

// tick is the amortized checkpoint: a counter increment and mask test
// on the hot path, with the full poll every budgetPollInterval ticks.
func (bs *budgetState) tick() error {
	bs.ticks++
	if bs.ticks%budgetPollInterval != 0 {
		return nil
	}
	return bs.poll()
}

// poll performs the full budget check: context cancellation, wall-clock
// deadline, and memo size, in that order. It returns the typed budget
// error describing the first exhausted bound, or nil.
func (bs *budgetState) poll() error {
	if bs.ctx != nil {
		if err := bs.ctx.Err(); err != nil {
			if err == context.DeadlineExceeded {
				return ErrDeadline
			}
			return ErrCanceled
		}
	}
	if bs.hasDeadline && !time.Now().Before(bs.deadline) {
		return ErrDeadline
	}
	if bs.maxBytes > 0 && bs.memo.MemoryBytes() > bs.maxBytes {
		return ErrMemoBudget
	}
	return nil
}
