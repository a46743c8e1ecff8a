package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests runs the open-loop generator
// against a server that stalls once. A generator that timed from the
// moment of sending would show one slow request; this one must show the
// stall in every request that was due while the server was stuck.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		rate    = 100 // one request every 10 ms
		stallAt = 10
		stall   = 300 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	timings := openLoop(rate, time.Second, 1, func(i int) func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return func() {}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return func() {}
	})

	if len(timings) != rate {
		t.Fatalf("%d requests issued, want %d: none may be dropped", len(timings), rate)
	}
	var waited, slowByService int
	for i, tm := range timings {
		if tm.sent < tm.due {
			t.Errorf("request %d sent %v before it was due", i, tm.due-tm.sent)
		}
		if tm.done-tm.sent > 100*time.Millisecond {
			slowByService++
		}
		if i > stallAt && tm.latency() > 100*time.Millisecond {
			waited++
			if tm.lateness() < 50*time.Millisecond {
				t.Errorf("request %d: latency %v but lateness only %v", i, tm.latency(), tm.lateness())
			}
		}
	}
	// Timed from sending, only the stalled request is slow.
	if slowByService != 1 {
		t.Errorf("%d requests were slow in service, want exactly the stalled one", slowByService)
	}
	// Timed from when they were due, the ~20 requests due during the
	// stall (and those queued behind them) were slow too.
	if waited < 15 {
		t.Errorf("only %d later requests were charged the stall, want at least 15", waited)
	}
	if p95 := percentile(latenessMS(timings), 0.95); p95 < 50 {
		t.Errorf("lateness p95 = %.1f ms: the generator did not report that it ran late", p95)
	}
}

func latenessMS(timings []timing) []float64 {
	out := make([]float64, len(timings))
	for i, tm := range timings {
		out[i] = ms(tm.lateness())
	}
	return out
}
