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
