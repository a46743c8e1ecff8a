// Package coretest holds the helper the optimizer's tests share.
package coretest

import (
	"testing"

	"repro/internal/core"
)

// CheckMemo fails the test when the optimizer's memo violates one of
// the invariants of core.Memo.Check. Tests call it after every search
// that returns, completed or budget-stopped.
func CheckMemo(t testing.TB, o *core.Optimizer) {
	t.Helper()
	if err := o.Memo().Check(); err != nil {
		t.Error(err)
	}
}

// CheckFixpoint fails the test when re-firing the transformation rules
// over the optimizer's memo still derives something (core.Memo's
// CheckFixpoint). Tests call it after a search that ran to completion.
func CheckFixpoint(t testing.TB, o *core.Optimizer) {
	t.Helper()
	if err := o.Memo().CheckFixpoint(); err != nil {
		t.Error(err)
	}
}
