package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/load"
	"repro/internal/rel"
	"repro/internal/vdb"
)

// openHotDB opens the repository benchmark's point-hot database: six
// 5 000-row tables R1..R6 with the generator's column layout, seed 1993,
// guided search and a plan cache large enough for every statement.
func openHotDB(tb testing.TB) *vdb.DB {
	tb.Helper()
	const rows = 5000
	cat := rel.NewCatalog()
	for i := 1; i <= 6; i++ {
		t := cat.AddTable("R"+strconv.Itoa(i), rows, datagen.TableRowBytes)
		cat.AddColumn(t, "id", rows, 1, rows)
		cat.AddColumn(t, "ja", rows/6, 1, rows/6)
		cat.AddColumn(t, "jb", rows/12, 1, rows/12)
		cat.AddColumn(t, "v", 1000, 0, 999)
	}
	return vdb.Open(cat, datagen.New(1993).Rows(cat), &vdb.Options{Guided: true, CacheBytes: 4 << 20})
}

// hotStatements is point-hot's mix: the daemon's demo workload plus each
// statement with its FROM list reversed, another spelling of the same
// query.
func hotStatements() []load.Statement {
	var out []load.Statement
	for _, s := range load.ChainWorkload(6, 16) {
		i, j := strings.Index(s.SQL, " FROM "), strings.Index(s.SQL, " WHERE ")
		tables := strings.Split(s.SQL[i+len(" FROM "):j], ", ")
		slices.Reverse(tables)
		commuted := s.SQL[:i] + " FROM " + strings.Join(tables, ", ") + s.SQL[j:]
		out = append(out, s, load.Statement{SQL: commuted, Params: s.Params})
	}
	return out
}

// hotCycle weights the distinct hot statements as point-hot issues
// them: a small selection three times, a GROUP BY once, an ORDER BY once
// but the slowest, the four-table chain spelled from R4, six times.
func hotCycle() []load.Statement {
	seen := map[string]bool{}
	var out []load.Statement
	for _, s := range hotStatements() {
		key := fmt.Sprint(s.SQL, s.Params)
		if seen[key] {
			continue
		}
		seen[key] = true
		n := 3
		switch {
		case strings.Contains(s.SQL, "GROUP BY"):
			n = 1
		case strings.Contains(s.SQL, "ORDER BY") && strings.Contains(s.SQL, " FROM R4, "):
			n = 6
		case strings.Contains(s.SQL, "ORDER BY"):
			n = 1
		}
		for range n {
			out = append(out, s)
		}
	}
	return out
}

// TestWireMatchesEncoder: every body the daemon writes is byte for byte
// what json.NewEncoder writes for the same value, and Content-Length is
// its length.
func TestWireMatchesEncoder(t *testing.T) {
	db := openHotDB(t)
	s := New(db, nil)
	ctx := context.Background()
	type wireCase struct {
		name string
		body any
	}
	var cases []wireCase
	add := func(name string) func(any, *vdb.Result, error) {
		return func(body any, _ *vdb.Result, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cases = append(cases, wireCase{name, body})
		}
	}
	var sqls []string
	for _, st := range hotStatements() {
		req := &Request{SQL: st.SQL, Params: st.Params}
		add("/query " + st.SQL)(s.query(ctx, req))
		add("/explain " + st.SQL)(s.explain(ctx, req))
		add("/prepare " + st.SQL)(s.prepare(ctx, req))
		if len(st.Params) == 0 && len(sqls) < 4 {
			sqls = append(sqls, st.SQL)
		}
	}
	add("/batch")(s.batch(ctx, &Request{Statements: sqls}))
	add("empty result")(s.query(ctx, &Request{SQL: "SELECT R1.id FROM R1 WHERE R1.v < 0"}))
	cases = append(cases,
		wireCase{"degraded", &Result{
			Columns: []string{"R1.id"}, Plan: "FileScan R1", Cost: 0.1 + 0.2,
			Degraded: true, StopReason: core.ErrBudget.Error(), OptimizeUS: 2000,
		}},
		wireCase{"escapes", &Result{
			Rows:    []exec.Row{{1, -2}, {math.MinInt64, math.MaxInt64}, {}},
			Columns: []string{"a<b", "c&d", `"q"`, "é\n"},
			Plan:    "Sort <R1.id>\n  Join & \"x\" ü   \x01",
			Cost:    1e21, Cached: true, NParams: 2,
		}},
		wireCase{"empty batch", &BatchResult{Results: []*Result{}}},
	)

	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, c.body)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.body); err != nil {
			t.Fatal(err)
		}
		got := rec.Body.Bytes()
		if rec.Code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: status %d, wire\n%.300s\nwant\n%.300s", c.name, rec.Code, got, want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", c.name, cl, len(got))
		}
	}

	// Over a connection, every endpoint frames its body by length.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const sql = "SELECT R1.id, R1.v FROM R1, R2 WHERE R1.ja = R2.id ORDER BY R1.id"
	for _, path := range []string{"/query", "/explain", "/prepare", "/batch"} {
		resp, body := postJSON(t, ts, path, Request{SQL: sql, Statements: []string{sql}})
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: status %d, Content-Length %d for a %d-byte body", path, resp.StatusCode, resp.ContentLength, len(body))
		}
	}
}

// serveDirect runs one request through h without a connection.
func serveDirect(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestRequestBodyBound: a body over the bound is refused with 413, a
// malformed one with 400, both with an error body.
func TestRequestBodyBound(t *testing.T) {
	h := New(openDemo(t, 2), nil).Handler()
	huge := `{"sql":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	for _, c := range []struct {
		body   string
		status int
	}{
		{huge, http.StatusRequestEntityTooLarge},
		{`{"sql":`, http.StatusBadRequest},
	} {
		rec := serveDirect(h, "/query", []byte(c.body))
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != c.status || err != nil || e.Error == "" {
			t.Errorf("%d-byte body: status %d (want %d), body %.100s", len(c.body), rec.Code, c.status, rec.Body.Bytes())
		}
	}
}

// TestEncodeFailureIs500: a body encoding/json refuses (a NaN cost) is
// answered with a 500 error body, never an empty 200, and counted as an
// error.
func TestEncodeFailureIs500(t *testing.T) {
	s := New(openDemo(t, 2), nil)
	s.endpoint("/nan", func(context.Context, *Request) (any, *vdb.Result, error) {
		return &Result{Rows: []exec.Row{{1}}, Cost: math.NaN()}, nil, nil
	})
	rec := serveDirect(s.Handler(), "/nan", []byte(`{"sql":"SELECT R1.id FROM R1"}`))
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Fatalf("NaN cost: status %d, body %q", rec.Code, rec.Body.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	if n := s.Metrics().Serve.Errors; n != 1 {
		t.Errorf("errors counter %d, want 1", n)
	}
}

// discardWriter is a ResponseWriter that keeps only the status and the
// byte count.
type discardWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *discardWriter) Header() http.Header    { return w.h }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkServeQuery drives point-hot's statements, weighted as the
// workload issues them, through the daemon's /query handler with every
// plan cached: parse, execute and encode, without a connection. It
// reports the response bytes per request beside B/op.
func BenchmarkServeQuery(b *testing.B) {
	h := New(openHotDB(b), nil).Handler()
	cycle := hotCycle()
	reqs := make([]*http.Request, len(cycle))
	bodies := make([][]byte, len(cycle))
	for i, st := range cycle {
		bodies[i], _ = json.Marshal(Request{SQL: st.SQL, Params: st.Params})
		reqs[i] = httptest.NewRequest(http.MethodPost, "/query", nil)
	}
	w := &discardWriter{h: http.Header{}}
	var sent int64
	serve := func(i int) {
		i %= len(reqs)
		reqs[i].Body = io.NopCloser(bytes.NewReader(bodies[i]))
		clear(w.h)
		w.n = 0
		h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			b.Fatalf("%s: status %d", cycle[i].SQL, w.status)
		}
		sent += w.n
	}
	for i := range reqs {
		serve(i) // plan every statement
	}
	sent = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.ReportMetric(float64(sent)/float64(b.N), "resp_B/op")
}
