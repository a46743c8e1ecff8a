package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/vdb"
)

// openDemo builds a small in-memory database with the plan cache on.
func openDemo(t *testing.T, n int) *vdb.DB {
	t.Helper()
	src := datagen.New(7)
	cat := src.Catalog(n)
	return vdb.Open(cat, src.Rows(cat), &vdb.Options{Guided: true, CacheBytes: 1 << 20})
}

func postJSON(t *testing.T, ts *httptest.Server, path string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp, buf.Bytes()
}

// TestQueryRowsWire: /query hands the executor's rows to the encoder as
// they are, and they encode exactly as a [][]int64 of the same rows.
func TestQueryRowsWire(t *testing.T) {
	db := openDemo(t, 2)
	ts := httptest.NewServer(New(db, nil).Handler())
	defer ts.Close()

	// R2.id is unique, so each R1 row appears once and the order is total.
	const sql = "SELECT R1.id, R2.v FROM R1, R2 WHERE R1.ja = R2.id ORDER BY R1.id"
	resp, body := postJSON(t, ts, "/query", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	var wire struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r
	}
	want, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !bytes.Equal(wire.Rows, want) {
		t.Fatalf("/query rows encode as\n%.200s\nwant\n%.200s", wire.Rows, want)
	}
}

func TestEndpoints(t *testing.T) {
	db := openDemo(t, 4)
	s := New(db, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sql = "SELECT R1.id FROM R1, R2 WHERE R1.ja = R2.id ORDER BY R1.id"

	resp, body := postJSON(t, ts, "/query", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	var qr Result
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) == 0 || len(qr.Columns) != 1 || qr.Cost <= 0 {
		t.Fatalf("/query envelope: rows=%d cols=%v cost=%v", len(qr.Rows), qr.Columns, qr.Cost)
	}

	// Same statement again: the plan cache serves it.
	resp, body = postJSON(t, ts, "/query", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query (cached) status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cached {
		t.Errorf("second identical query not served from plan cache")
	}

	resp, body = postJSON(t, ts, "/explain", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/explain status %d: %s", resp.StatusCode, body)
	}
	var er Result
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Plan == "" || er.Rows != nil {
		t.Fatalf("/explain envelope: plan=%q rows=%v", er.Plan, er.Rows)
	}

	resp, body = postJSON(t, ts, "/prepare", Request{SQL: "SELECT R1.id FROM R1 WHERE R1.v < $1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/prepare status %d: %s", resp.StatusCode, body)
	}
	var pr Result
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.NParams != 1 || pr.Plan == "" {
		t.Fatalf("/prepare envelope: nparams=%d plan=%q", pr.NParams, pr.Plan)
	}

	resp, body = postJSON(t, ts, "/query", Request{
		SQL: "SELECT R1.id FROM R1 WHERE R1.v < $1", Params: []int64{5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query with params status %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts, "/batch", Request{Statements: []string{
		"SELECT R1.id FROM R1, R2 WHERE R1.ja = R2.id",
		"SELECT R1.v FROM R1, R2 WHERE R1.ja = R2.id",
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d: %s", resp.StatusCode, body)
	}
	var br BatchResult
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("/batch results: %d", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Cached {
			t.Errorf("batch result %d claims a plan-cache hit; batches bypass the cache", i)
		}
	}

	resp, body = postJSON(t, ts, "/query", Request{SQL: "SELEKT nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL status %d: %s", resp.StatusCode, body)
	}

	// Metrics reflect the traffic above.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap struct {
		Search struct {
			Optimizations int64 `json:"optimizations"`
			CacheHits     int64 `json:"cache_hits"`
		} `json:"search"`
		Serve struct {
			Admitted int64 `json:"admitted"`
			Errors   int64 `json:"errors"`
		} `json:"serve"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Search.Optimizations < 4 || snap.Search.CacheHits < 1 {
		t.Errorf("metrics search section: %+v", snap.Search)
	}
	if snap.Serve.Admitted < 6 || snap.Serve.Errors != 1 {
		t.Errorf("metrics serve section: %+v", snap.Serve)
	}
}

// TestOverloadContract: with the tier's only slot held, every further
// request is either a complete 200 (possibly on a degraded plan) or a
// 503 with Retry-After — never a partial result, never an unbounded
// wait. One request parks on the onAdmitted seam to hold capacity (a
// single-core machine never overlaps CPU-bound optimizations, so real
// contention cannot be provoked portably).
func TestOverloadContract(t *testing.T) {
	db := openDemo(t, 5)
	s := New(db, &Config{
		MaxConcurrent: 1,
		QueueTimeout:  time.Millisecond,
	})
	gate := make(chan struct{})
	var holder atomic.Bool
	s.onAdmitted = func() {
		if holder.CompareAndSwap(false, true) {
			<-gate
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sql = "SELECT R1.id FROM R1, R2 WHERE R1.ja = R2.id"
	ref, err := db.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	db.PlanCache().Invalidate()

	// The holder takes the slot and parks.
	holderDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(Request{SQL: sql})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			holderDone <- -1
			return
		}
		defer resp.Body.Close()
		var r Result
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			holderDone <- -1
			return
		}
		holderDone <- len(r.Rows)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Every request while the slot is held must shed: bounded wait,
	// 503, Retry-After, a decodable error body — nothing partial.
	var wg sync.WaitGroup
	var shed503 atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(Request{SQL: sql})
			start := time.Now()
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			if wait := time.Since(start); wait > 2*time.Second {
				t.Errorf("shed request waited %v; the queue must be bounded", wait)
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("status %d while capacity held, want 503", resp.StatusCode)
				return
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("503 without Retry-After")
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("503 body not a complete error payload: %v", err)
			}
			shed503.Add(1)
		}()
	}
	wg.Wait()

	// Capacity freed: the parked request completes with the full,
	// correct row set, and new requests are admitted again.
	close(gate)
	if rows := <-holderDone; rows != len(ref.Rows) {
		t.Errorf("holder returned %d rows, want %d", rows, len(ref.Rows))
	}
	resp, body := postJSON(t, ts, "/query", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain status %d: %s", resp.StatusCode, body)
	}

	snap := s.Metrics()
	if snap.Serve.Shed != shed503.Load() {
		t.Errorf("shed counter %d, 503 responses %d", snap.Serve.Shed, shed503.Load())
	}
	if snap.Serve.Inflight != 0 {
		t.Errorf("inflight %d after drain", snap.Serve.Inflight)
	}
	t.Logf("overload: %d shed while capacity held, holder completed intact", shed503.Load())
}

// TestClientDisconnect: canceling the client context mid-request tears
// the statement down cleanly — the server accounts a cancellation and
// leaks no goroutines.
func TestClientDisconnect(t *testing.T) {
	db := openDemo(t, 8)
	s := New(db, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(Request{
			// A 8-relation chain is slow enough to optimize that the
			// cancel lands mid-request.
			SQL: fmt.Sprintf("SELECT R1.id FROM R1, R2, R3, R4, R5, R6, R7, R8 "+
				"WHERE R1.ja = R2.id AND R2.ja = R3.id AND R3.ja = R4.id AND R4.ja = R5.id "+
				"AND R5.ja = R6.id AND R6.ja = R7.id AND R7.ja = R8.id AND R1.v < %d", i+1),
		})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
	}

	// Let teardown finish, then compare goroutine counts; -race makes
	// any cross-goroutine misuse fail loudly as well. Idle client
	// transport connections each hold two goroutines — drop them so the
	// count reflects the server side.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew from %d to %d after canceled requests", before, n)
	}

	// The client's Do returns as soon as its context cancels, but the
	// server-side handler drains on its own schedule (slow under
	// -race), and the goroutine comparison above has +2 slack that can
	// hide one still-finishing handler — so poll inflight down to zero
	// rather than reading it once.
	var snap *metrics.Snapshot
	deadline = time.Now().Add(5 * time.Second)
	for {
		snap = s.Metrics()
		if snap.Serve.Inflight == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Serve.Canceled == 0 {
		t.Logf("note: cancellations completed before the cancel landed (fast machine); canceled=0")
	}
	if snap.Serve.Inflight != 0 {
		t.Errorf("inflight %d after cancellations", snap.Serve.Inflight)
	}
}

// TestPerEndpointDegradedTiers: each endpoint degrades onto its own
// budget tier. With every admit under pressure (degradeAt=1), a
// one-step tier on /explain and /prepare forces budget-stopped
// (Degraded) plans there, while the same statement through /query —
// whose tier is effectively unbounded — optimizes fully.
func TestPerEndpointDegradedTiers(t *testing.T) {
	db := openDemo(t, 8)
	s := New(db, &Config{
		MaxConcurrent:  2,
		DegradeFrac:    0.01, // degradeAt=1: every admit is "under pressure"
		DegradedBudget: core.Budget{MaxSteps: 10_000_000},
		DegradedBudgets: map[string]core.Budget{
			"/explain": {MaxSteps: 1},
			"/prepare": {MaxSteps: 1},
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := "SELECT R1.id FROM R1, R2, R3, R4, R5, R6, R7, R8 " +
		"WHERE R1.ja = R2.id AND R2.ja = R3.id AND R3.ja = R4.id AND R4.ja = R5.id " +
		"AND R5.ja = R6.id AND R6.ja = R7.id AND R7.ja = R8.id"

	// /explain first: a degraded plan is never cached, so it cannot be
	// served from (or pollute) the cache the later /query fills.
	resp, body := postJSON(t, ts, "/explain", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/explain status %d: %s", resp.StatusCode, body)
	}
	var er Result
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded || er.Plan == "" {
		t.Errorf("/explain on a 1-step tier: degraded=%v plan=%q, want a degraded plan", er.Degraded, er.Plan)
	}

	// A non-parameterized prepare: dynamic-plan preparation ($n
	// statements) deliberately ignores budgets, so only the static
	// path shows the tier.
	resp, body = postJSON(t, ts, "/prepare", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/prepare status %d: %s", resp.StatusCode, body)
	}
	var pr Result
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded {
		t.Errorf("/prepare on a 1-step tier: degraded=%v, want true", pr.Degraded)
	}

	resp, body = postJSON(t, ts, "/query", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	var qr Result
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Degraded {
		t.Errorf("/query on the roomy tier degraded (%s); tiers did not separate", qr.StopReason)
	}

	snap := s.Metrics()
	if snap.Serve.DegradedAdmits < 3 {
		t.Errorf("degradeAt=1 but only %d degraded admits recorded", snap.Serve.DegradedAdmits)
	}
}

// TestDegradedTierDefaults: the zero config tiers /explain and
// /prepare at half the general degraded budget.
func TestDegradedTierDefaults(t *testing.T) {
	cfg := New(openDemo(t, 2), nil).Config()
	want := core.Budget{
		Timeout:  cfg.DegradedBudget.Timeout / 2,
		MaxSteps: cfg.DegradedBudget.MaxSteps / 2,
	}
	for _, path := range []string{"/explain", "/prepare"} {
		if got := cfg.DegradedBudgets[path]; got != want {
			t.Errorf("%s default tier %+v, want %+v", path, got, want)
		}
	}
	if _, ok := cfg.DegradedBudgets["/query"]; ok {
		t.Errorf("/query should ride the general DegradedBudget, not its own tier")
	}
}

// TestDegradedBudgetMapsToResult: a server with a degrade threshold of
// zero runs everything on the clamped budget; a hard statement then
// reports Degraded on the wire while still returning correct rows.
func TestDegradedBudgetMapsToResult(t *testing.T) {
	db := openDemo(t, 8)
	s := New(db, &Config{
		MaxConcurrent: 2,
		DegradeFrac:   0.01, // degradeAt=1: every admit is "under pressure"
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := "SELECT R1.id FROM R1, R2, R3, R4, R5, R6, R7, R8 " +
		"WHERE R1.ja = R2.id AND R2.ja = R3.id AND R3.ja = R4.id AND R4.ja = R5.id " +
		"AND R5.ja = R6.id AND R6.ja = R7.id AND R7.ja = R8.id"
	ref, err := db.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	db.PlanCache().Invalidate()

	resp, body := postJSON(t, ts, "/query", Request{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r Result
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ref.Rows) {
		t.Errorf("degraded run returned %d rows, full run %d", len(r.Rows), len(ref.Rows))
	}
	snap := s.Metrics()
	if snap.Serve.DegradedAdmits == 0 {
		t.Errorf("degradeAt=1 but no degraded admits recorded")
	}
	if r.Degraded {
		if r.StopReason == "" {
			t.Errorf("degraded result without stop_reason")
		}
		t.Logf("degraded as expected: %s", r.StopReason)
	} else {
		t.Logf("note: clamped budget sufficed for full optimization on this machine")
	}
}
