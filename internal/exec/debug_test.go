//go:build volcano_debug

package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
)

// TestWriteThroughResultRowFailsNextRun: the survivors of a fused
// scan-filter are the stored rows themselves, so a write through one
// changes the table. A debug build checks every table after each Run and
// panics, naming the table.
func TestWriteThroughResultRowFailsNextRun(t *testing.T) {
	cat, db := analyticDB(t, 1, 2000)
	plan := analyticPlan(t, cat, "SELECT * FROM R1 WHERE R1.v < 500")
	rows, _, err := exec.RunOpts(context.Background(), db, plan, nil, exec.Options{})
	if err != nil || len(rows) == 0 {
		t.Fatalf("run: %v, %d rows", err, len(rows))
	}
	rows[0][3]++
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `table "R1"`) {
			t.Fatalf("the run after a write through a result row did not fail naming the table: %s", msg)
		}
	}()
	exec.RunOpts(context.Background(), db, plan, nil, exec.Options{})
}
