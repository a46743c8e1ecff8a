// Package serve is the network serving tier over vdb: an HTTP/JSON
// daemon exposing prepare, explain, query, and batch endpoints with
// per-request deadlines, semaphore-based admission control, and
// overload degradation. Under pressure it does not queue unboundedly —
// it first degrades admitted requests onto a clamped optimization
// budget (riding vdb's anytime ladder down toward seed-floor plans,
// which still produce exact results), and once saturated it fast-fails
// with 503 + Retry-After, keeping admitted-request latency bounded.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/relopt"
	"repro/internal/vdb"
)

// StatusClientClosedRequest is the response code recorded when the
// client went away mid-request (nginx's 499 convention). The client is
// gone, so the code is for logs and metrics, not for the wire.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value is completed with defaults.
type Config struct {
	// MaxConcurrent caps requests executing at once; further requests
	// wait at most QueueTimeout for a slot before being shed with 503.
	// Default 4×GOMAXPROCS.
	MaxConcurrent int
	// QueueTimeout bounds how long an arriving request may wait for a
	// slot — the only queue in the tier, bounded in time so backlog
	// cannot grow without bound. Default 25ms.
	QueueTimeout time.Duration
	// DegradeFrac is the inflight fraction of MaxConcurrent at which
	// admitted requests switch to DegradedBudget. Default 0.75.
	DegradeFrac float64
	// DegradedBudget is the clamped optimization budget degraded admits
	// run under; the search stops early and serves the best (possibly
	// seed-floor) plan found, still producing exact results. Default
	// {Timeout: 2ms, MaxSteps: 5000}.
	DegradedBudget core.Budget
	// DegradedBudgets overrides the degraded tier per endpoint path
	// (e.g. "/explain"); endpoints without an entry fall back to
	// DegradedBudget. By default /explain and /prepare — plan-only
	// endpoints where a seed-floor plan is a complete answer — are
	// tiered at half the /query budget, so under pressure the tier
	// sheds optimization effort first where no rows depend on it.
	DegradedBudgets map[string]core.Budget
	// DegradedPolicy, when not core.PolicyExhaustive, switches
	// degraded admits onto a budgeted stochastic search policy
	// (core.PolicyMCTS or core.PolicyWidening) alongside the clamped
	// budget: instead of an exhaustive search truncated mid-descent,
	// the degraded tier runs a policy built to spend a small budget
	// well on large queries. Policy-optimized plans bypass the plan
	// cache (see vdb.WithSearchPolicy), so the degraded tier never
	// pollutes full-budget serving. Default PolicyExhaustive (off).
	DegradedPolicy core.SearchPolicy
	// DefaultTimeout is the per-request deadline when the client sends
	// none; MaxTimeout clamps client-requested deadlines. Defaults 2s
	// and 30s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint attached to 503 responses. Default 1s.
	RetryAfter time.Duration
}

func (c *Config) withDefaults() Config {
	out := Config{}
	if c != nil {
		out = *c
	}
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if out.QueueTimeout <= 0 {
		out.QueueTimeout = 25 * time.Millisecond
	}
	if out.DegradeFrac <= 0 || out.DegradeFrac > 1 {
		out.DegradeFrac = 0.75
	}
	if out.DegradedBudget == (core.Budget{}) {
		out.DegradedBudget = core.Budget{Timeout: 2 * time.Millisecond, MaxSteps: 5000}
	}
	// Copy the per-endpoint overrides (so the caller's map is never
	// aliased) and fill the default tighter tiers for the plan-only
	// endpoints.
	budgets := make(map[string]core.Budget, len(out.DegradedBudgets)+2)
	for path, b := range out.DegradedBudgets {
		budgets[path] = b
	}
	for _, path := range []string{"/explain", "/prepare"} {
		if _, ok := budgets[path]; !ok {
			budgets[path] = core.Budget{
				Timeout:  out.DegradedBudget.Timeout / 2,
				MaxSteps: out.DegradedBudget.MaxSteps / 2,
			}
		}
	}
	out.DegradedBudgets = budgets
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 2 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 30 * time.Second
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	return out
}

// Request is the wire request accepted by every POST endpoint. /query,
// /explain, and /prepare read SQL (and Params for /query); /batch
// reads Statements.
type Request struct {
	SQL        string   `json:"sql,omitempty"`
	Statements []string `json:"statements,omitempty"`
	Params     []int64  `json:"params,omitempty"`
	// TimeoutMS requests a per-request deadline in milliseconds,
	// clamped to the server's MaxTimeout; 0 means DefaultTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Result is the wire projection of vdb.Result. Rows appear only for
// executed statements, Plan only for explain/prepare responses.
type Result struct {
	Rows    []exec.Row `json:"rows,omitempty"`
	Columns []string   `json:"columns,omitempty"`
	Plan    string     `json:"plan,omitempty"`
	Cost    float64    `json:"cost"`

	Degraded   bool   `json:"degraded"`
	StopReason string `json:"stop_reason,omitempty"`
	Cached     bool   `json:"cached"`
	Coalesced  bool   `json:"coalesced"`
	Dynamic    bool   `json:"dynamic"`
	NParams    int    `json:"nparams"`

	OptimizeUS int64 `json:"optimize_us"`
	ExecUS     int64 `json:"exec_us"`
}

// BatchResult is the wire response of /batch.
type BatchResult struct {
	Results []*Result `json:"results"`
	Spools  int       `json:"spools"`
}

// errorBody is the JSON payload of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// toWire projects a vdb.Result; withPlan additionally renders the plan
// (explain responses carry PlanText already, prepare renders here).
func toWire(res *vdb.Result, withPlan bool) *Result {
	out := &Result{
		Columns:    res.Columns,
		Degraded:   res.Degraded,
		Cached:     res.Cached,
		Coalesced:  res.Coalesced,
		Dynamic:    res.Dynamic,
		NParams:    res.NParams,
		OptimizeUS: res.OptimizeTime.Microseconds(),
		ExecUS:     res.ExecTime.Microseconds(),
		Rows:       res.Rows,
	}
	if res.StopReason != nil {
		out.StopReason = res.StopReason.Error()
	}
	if c, ok := res.Cost.(relopt.Cost); ok {
		out.Cost = c.Total()
	}
	switch {
	case res.PlanText != "":
		out.Plan = res.PlanText
	case withPlan && res.Plan != nil:
		out.Plan = res.Plan.Format()
	}
	return out
}

// epStats is one endpoint's cumulative serving record.
type epStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	degraded  atomic.Int64
	cacheHits atomic.Int64
	lat       metrics.Histogram
}

// Server serves one vdb.DB over HTTP.
type Server struct {
	db  *vdb.DB
	cfg Config
	adm *admission
	mux *http.ServeMux

	canceled atomic.Int64
	errors   atomic.Int64
	eps      map[string]*epStats

	mu     sync.Mutex
	search *metrics.Search

	// onAdmitted, when set, runs after a request takes its admission
	// slot and before its statement starts. It is a test seam: overload
	// tests park one request here to hold the tier's capacity without
	// depending on CPU-bound work overlapping (which a single-core
	// machine never shows).
	onAdmitted func()

	httpSrv *http.Server
}

// New builds a Server over db.
func New(db *vdb.DB, cfg *Config) *Server {
	c := cfg.withDefaults()
	degradeAt := int(c.DegradeFrac * float64(c.MaxConcurrent))
	if degradeAt < 1 {
		degradeAt = 1
	}
	s := &Server{
		db:     db,
		cfg:    c,
		adm:    newAdmission(c.MaxConcurrent, degradeAt, c.QueueTimeout),
		mux:    http.NewServeMux(),
		eps:    map[string]*epStats{},
		search: &metrics.Search{},
	}
	s.endpoint("/query", s.query)
	s.endpoint("/explain", s.explain)
	s.endpoint("/prepare", s.prepare)
	s.endpoint("/batch", s.batch)
	s.mux.HandleFunc("/metrics", s.metricsHandler)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler exposes the routing mux (for tests and in-process harnesses).
func (s *Server) Handler() http.Handler { return s.mux }

// Config exposes the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to drain, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// handlerFn runs one admitted request under a context that carries the
// request deadline and the (possibly degraded) optimization budget. It
// returns the wire body plus the vdb envelope for accounting.
type handlerFn func(ctx context.Context, req *Request) (any, *vdb.Result, error)

// endpoint installs the shared request plumbing around fn: decode,
// admission, deadline + budget mapping, error classification, and
// per-endpoint accounting.
func (s *Server) endpoint(path string, fn handlerFn) {
	ep := &epStats{}
	s.eps[path] = ep
	degradedBudget := s.cfg.DegradedBudget
	if b, ok := s.cfg.DegradedBudgets[path]; ok {
		degradedBudget = b
	}
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
			return
		}
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorBody{Error: "bad request body: " + err.Error()})
			return
		}

		start := time.Now()
		ep.requests.Add(1)
		defer func() { ep.lat.Observe(time.Since(start)) }()

		degraded, ok := s.adm.admit(r.Context())
		if !ok {
			if r.Context().Err() != nil {
				s.canceled.Add(1)
				return // client gone while queued; nothing to write
			}
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "overloaded, request shed"})
			return
		}
		// The slot is released as soon as fn returns, before the
		// response is written: a client that has read the whole body
		// must find the slot free. The guard keeps the deferred release
		// for the error and panic paths from releasing it twice.
		released := false
		release := func() {
			if !released {
				released = true
				s.adm.release()
			}
		}
		defer release()
		if s.onAdmitted != nil {
			s.onAdmitted()
		}

		d := s.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			d = time.Duration(req.TimeoutMS) * time.Millisecond
			if d > s.cfg.MaxTimeout {
				d = s.cfg.MaxTimeout
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		budget := core.Budget{Timeout: d / 2}
		if degraded {
			budget = degradedBudget
			if s.cfg.DegradedPolicy != core.PolicyExhaustive {
				ctx = vdb.WithSearchPolicy(ctx, s.cfg.DegradedPolicy)
			}
		}
		ctx = vdb.WithBudget(ctx, budget)

		body, res, err := fn(ctx, &req)
		release()
		if err != nil {
			status := classify(r.Context(), ctx, err)
			switch status {
			case StatusClientClosedRequest:
				s.canceled.Add(1)
				return // client gone; response would go nowhere
			default:
				ep.errors.Add(1)
				s.errors.Add(1)
			}
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		if res != nil {
			s.record(res)
			if res.Degraded {
				ep.degraded.Add(1)
			}
			if res.Cached {
				ep.cacheHits.Add(1)
			}
		}
		if writeJSON(w, http.StatusOK, body) != http.StatusOK {
			ep.errors.Add(1)
			s.errors.Add(1)
		}
	})
}

// classify maps a statement error to an HTTP status: client gone →
// 499, request deadline → 504, client-side statement errors (parse,
// unsupported shapes — tagged "sqlish:"/"vdb:") → 400, else 500.
func classify(reqCtx, ctx context.Context, err error) int {
	if reqCtx.Err() != nil {
		return StatusClientClosedRequest
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	msg := err.Error()
	if strings.HasPrefix(msg, "sqlish:") || strings.HasPrefix(msg, "vdb:") {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// query executes req.SQL (with Params when present) and returns the
// full row set — rows are buffered before any byte is written, so a
// response is always complete or absent, never partial.
func (s *Server) query(ctx context.Context, req *Request) (any, *vdb.Result, error) {
	var res *vdb.Result
	var err error
	if len(req.Params) > 0 {
		res, err = s.db.QueryParamsCtx(ctx, req.SQL, req.Params...)
	} else {
		res, err = s.db.QueryCtx(ctx, req.SQL)
	}
	if err != nil {
		return nil, nil, err
	}
	return toWire(res, false), res, nil
}

func (s *Server) explain(ctx context.Context, req *Request) (any, *vdb.Result, error) {
	res, err := s.db.ExplainCtx(ctx, req.SQL)
	if err != nil {
		return nil, nil, err
	}
	return toWire(res, true), res, nil
}

func (s *Server) prepare(ctx context.Context, req *Request) (any, *vdb.Result, error) {
	stmt, err := s.db.PrepareCtx(ctx, req.SQL)
	if err != nil {
		return nil, nil, err
	}
	res := stmt.Result()
	return toWire(res, true), res, nil
}

func (s *Server) batch(ctx context.Context, req *Request) (any, *vdb.Result, error) {
	out, err := s.db.QueryBatchCtx(ctx, req.Statements)
	if err != nil {
		return nil, nil, err
	}
	body := &BatchResult{Spools: out.Spools, Results: make([]*Result, len(out.Results))}
	for i, r := range out.Results {
		body.Results[i] = toWire(r, false)
	}
	// The batch shares one optimization, and every Result carries the
	// same Stats; handing one representative back to the endpoint
	// plumbing records the shared counters exactly once.
	var rep *vdb.Result
	if len(out.Results) > 0 {
		rep = out.Results[0]
	}
	return body, rep, nil
}

// record folds one served statement into the cumulative search
// section. Cache-hit and coalesced results carry the *original*
// optimization's counters in Stats; replaying those would double-count
// the search effort, so only the serving outcome is recorded for them.
func (s *Server) record(res *vdb.Result) {
	switch {
	case res.Cached:
		s.mergeSearch(&metrics.Search{Optimizations: 1, CacheHits: 1})
	case res.Coalesced:
		s.mergeSearch(&metrics.Search{Optimizations: 1, Coalesced: 1})
	default:
		s.mergeSearch(metrics.FromStats(res.Stats))
	}
}

func (s *Server) mergeSearch(rec *metrics.Search) {
	s.mu.Lock()
	s.search.Merge(rec)
	s.mu.Unlock()
}

// Metrics assembles the one-snapshot view /metrics serves: cumulative
// search counters, plan-cache counters, executor counters, and the
// admission/latency section.
func (s *Server) Metrics() *metrics.Snapshot {
	s.mu.Lock()
	search := *s.search
	s.mu.Unlock()
	execCounters := s.db.ExecCounters()
	snap := &metrics.Snapshot{
		Search: &search,
		Exec:   &execCounters,
		Serve: &metrics.Serve{
			Capacity:       s.adm.capacity,
			Inflight:       s.adm.inflight.Load(),
			Admitted:       s.adm.admitted.Load(),
			DegradedAdmits: s.adm.degradedAdmits.Load(),
			Shed:           s.adm.shed.Load(),
			Canceled:       s.canceled.Load(),
			Errors:         s.errors.Load(),
			Endpoints:      map[string]*metrics.Endpoint{},
		},
	}
	if c := s.db.PlanCache(); c != nil {
		counters := c.Counters()
		snap.Cache = &counters
	}
	for path, ep := range s.eps {
		snap.Serve.Endpoints[path] = &metrics.Endpoint{
			Requests:  ep.requests.Load(),
			Errors:    ep.errors.Load(),
			Degraded:  ep.degraded.Load(),
			CacheHits: ep.cacheHits.Load(),
			Latency:   ep.lat.Summary(),
		}
	}
	return snap
}

func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// A request body over maxRequestBytes is refused with 413; a response
// buffer grown past maxPooledBuf is dropped instead of pooled.
const maxRequestBytes, maxPooledBuf = 1 << 20, 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON is the only way a response is written. The whole body is
// encoded into one pooled buffer first, so the response goes out as one
// length-framed write, complete or not at all; a body that cannot be
// encoded becomes a 500 error body. It returns the status sent.
func writeJSON(w http.ResponseWriter, status int, body any) int {
	bp := bufPool.Get().(*[]byte)
	buf, err := appendBody((*bp)[:0], body)
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = appendBody(buf[:0], errorBody{Error: "encode response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		bufPool.Put(bp)
	}
	return status
}

// appendBody appends body as json.NewEncoder(w).Encode writes it. Result
// rows are appended by hand; everything else goes through encoding/json.
func appendBody(dst []byte, body any) ([]byte, error) {
	var err error
	switch b := body.(type) {
	case *Result:
		dst, err = appendResult(dst, b)
	case *BatchResult:
		dst = append(dst, `{"results":[`...)
		for i, r := range b.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendResult(dst, r); err != nil {
				return dst, err
			}
		}
		dst = append(dst, `],"spools":`...)
		dst = append(strconv.AppendInt(dst, int64(b.Spools), 10), '}')
	default:
		out := bytes.NewBuffer(dst)
		err = json.NewEncoder(out).Encode(body)
		return out.Bytes(), err
	}
	return append(dst, '\n'), err
}

// appendResult appends r as encoding/json marshals it: the rows as
// integer arrays, then the other fields marshaled from a copy without
// rows (Rows is the first field and omitempty, so a result without rows
// is just the copy). The daemon builds no nil result or row.
func appendResult(dst []byte, r *Result) ([]byte, error) {
	rest := *r
	rest.Rows = nil
	tail, err := json.Marshal(&rest)
	if err != nil || len(r.Rows) == 0 {
		return append(dst, tail...), err
	}
	// One grow for up to seven digits a value, not a doubling chain.
	dst = slices.Grow(dst, len(tail)+len(r.Rows)*(2+8*len(r.Rows[0])))
	dst = append(dst, `{"rows":[`...)
	for i, row := range r.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, "],"...)
	return append(dst, tail[1:]...), nil
}
