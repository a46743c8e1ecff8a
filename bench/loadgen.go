package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The bench's own load generator. internal/load.Run times each request
// from the moment it is sent, drops arrivals instead of letting them
// wait, and allows 512 requests in flight; this one issues requests on
// a fixed schedule over a few connections and times each from the
// instant it was due, so a stall in the server is charged to every
// request that had to wait behind it.

// timing is one request's schedule and outcome, as offsets from the
// start of the run.
type timing struct {
	due  time.Duration // when the schedule said to send it
	sent time.Duration // when it was sent (>= due; the difference is lateness)
	done time.Duration // when do returned
}

func (t timing) latency() time.Duration  { return t.done - t.due }
func (t timing) lateness() time.Duration { return t.sent - t.due }

// openLoop issues requests at a fixed rate for d: request i is due at
// i/rate. At most conns requests are in flight; a request whose turn
// comes while all connections are busy is sent late, never dropped, and
// its latency still counts from its due time. do(i) performs request i
// and returns once the response is read; the function it returns, which
// checks the response, runs after the completion time is taken.
func openLoop(rate int, d time.Duration, conns int, do func(i int) (finish func())) []timing {
	interval := time.Second / time.Duration(rate)
	n := int(d / interval)
	timings := make([]timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := &timings[i]
				t.due = time.Duration(i) * interval
				sleepUntil(start.Add(t.due))
				t.sent = time.Since(start)
				finish := do(i)
				t.done = time.Since(start)
				finish()
			}
		}()
	}
	wg.Wait()
	return timings
}

// spinWindow is how long before a due time the generator stops
// sleeping and polls the clock instead. Timers on the machines this
// runs on fire on a tick of about 1.1 ms (a 50 microsecond sleep takes
// 1.1 ms), which would be charged to the server as latency; polling
// through the last tick keeps lateness in the tens of microseconds.
const spinWindow = 1200 * time.Microsecond

func sleepUntil(due time.Time) {
	if wait := time.Until(due) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		// Give the CPU to whatever else can run, the server first of
		// all: with two CPUs a polling loop that held on to one would
		// take it from the process being measured.
		runtime.Gosched()
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// closedLoop runs clients callers for d, each sending its next request
// as soon as the previous one completed. Requests are numbered from
// first by one shared counter, so the statement sequence is the same
// however the clients interleave. It returns the number of requests
// issued and the wall time they took.
func closedLoop(d time.Duration, clients, first int, do func(i int)) (int, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return int(next.Load()) - first, time.Since(start)
}
