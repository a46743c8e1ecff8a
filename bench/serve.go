package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/rel"
	"repro/internal/serve"
	"repro/internal/vdb"
)

// serve-open drives a child volcano-serve process over HTTP. One
// operation is one /query round trip. Phase A is an open loop at a
// fixed rate and yields the latency percentiles; phase B is a closed
// loop with one client per CPU and yields throughput and the server's
// CPU per request.

const (
	// servePhaseAShare is the share of a run spent in phase A; the rest
	// is phase B.
	servePhaseAShare = 0.6
	// serveSliceRequests is the length of one phase A slice: 68
	// consecutive arrivals, one cycle of the repeated mix and the novel
	// statements between them.
	serveSliceRequests = 68
	// serveSegments is the number of closed loops phase B is cut into.
	serveSegments = 8
)

type serveOpen struct {
	seed  int64
	cat   *rel.Catalog
	cycle []*statement // the repeated mix: point-hot's cycle
	hot   []*statement // the cycle many times over, each time in another order
	novel []*statement // each sent once: 1 in serveNovelEvery arrivals
	child *exec.Cmd
	errs  *bytes.Buffer // the child's stderr
	base  string        // http://host:port
	http  *http.Client
	conns int
	// replay is an in-process database over the same tables, used only
	// to report allocation per operation, which the child does not expose.
	replay *vdb.DB
	// arrivals counts requests issued so far, so that a second pass (the
	// traced run) continues the statement sequence and its novel
	// statements are still unseen.
	arrivals int

	mu   sync.Mutex // guards the result and records shared by the clients
	last serveDetail
}

// serveDetail is what the last pass observed beyond the end-to-end
// numbers, for the per-layer metrics.
type serveDetail struct {
	timingsA         []timing
	records          []reqRecord
	before, after    *metrics.Snapshot
	benchCPU, srvCPU time.Duration // phase B
	requestsB        int
}

type reqRecord struct {
	phaseA     bool
	roundtrip  time.Duration // sent -> body read
	status     int
	bytes      int
	degraded   bool
	optimizeUS int64
	execUS     int64
}

func (w *serveOpen) sizes() string {
	return fmt.Sprintf("volcano-serve -n %d -rows %d -seed %d, %d repeated + %d novel statements (1 in %d), phase A %d rps on %d connections, phase B %d clients",
		pointTables, pointRows, serveDataSeed, len(w.cycle), len(w.novel), serveNovelEvery, serveOpenRate, w.conns, w.conns)
}

// benchDir locates the benchmark's directory from the working
// directory: the checkout root (where the driver runs) or bench/ itself.
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module repro/bench") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

// serveBinary returns the daemon to start: the one run.sh built, or one
// built here when the bench was started with go run.
func serveBinary() (string, error) {
	if bin := os.Getenv("BENCH_SERVE_BIN"); bin != "" {
		return bin, nil
	}
	dir, err := benchDir()
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "out", "volcano-serve"))
	if err != nil {
		return "", err
	}
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/volcano-serve")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building volcano-serve: %v\n%s", err, out)
	}
	return bin, nil
}

func (w *serveOpen) setup(seed int64) error {
	w.close()
	w.seed = seed
	w.conns = runtime.NumCPU()
	w.arrivals = 0

	// The same tables the daemon generates. They come from one fixed
	// seed whatever -seed is: volcano-serve sizes each table within 20%
	// of -rows at random, every statement of the daemon's demo mix reads
	// R1, and so every latency would follow R1's size from seed to seed.
	// -seed chooses the never-seen statements instead.
	src := datagen.New(serveDataSeed)
	w.cat = src.ScaledCatalog(pointTables, pointRows)
	data := src.Rows(w.cat)
	var err error
	if w.cycle, err = prepareCycle(w.cat, data, unlabeled(hotCycle())); err != nil {
		return err
	}
	if w.novel, err = prepareCycle(w.cat, data, unlabeled(churnStatements(rand.New(rand.NewSource(seed)), serveNovelPool))); err != nil {
		return err
	}
	w.hot = shuffledCycles(rand.New(rand.NewSource(seed)), w.cycle)
	// Both plan caches are warmed in the cycle's own order, not the
	// shuffled one: two spellings of a query share a cache entry, the
	// plan cached is the one found for whichever spelling came first,
	// and plans that tie on cost can differ sixteenfold in what they
	// allocate when run.
	w.replay = vdb.Open(w.cat, data, shippedOptions(serveCacheBytes))
	for _, st := range w.cycle {
		if err := w.replayOne(st); err != nil {
			return err
		}
	}

	bin, err := serveBinary()
	if err != nil {
		return err
	}
	dir, err := benchDir()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return err
	}
	addrFile := filepath.Join(dir, "out", fmt.Sprintf("serve.%d.addr", os.Getpid()))
	_ = os.Remove(addrFile) // a leftover from a killed run; absence is fine
	w.errs = &bytes.Buffer{}
	w.child = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-n", fmt.Sprint(pointTables), "-rows", fmt.Sprint(pointRows), "-seed", fmt.Sprint(serveDataSeed))
	// With the Go runtime's default, a daemon that idles between
	// arrivals hands freed heap pages back to the kernel and faults them
	// in again on the next large response. One process in three settles
	// into doing so for the whole of phase A (the 95th percentile reads
	// 10 ms, not 5.5) and the rest never do, so the daemon is started with
	// lazy page release, as an operator who had seen this would.
	w.child.Env = append(os.Environ(), "GODEBUG=madvdontneed=0")
	w.child.Stderr = w.errs
	if err := w.child.Start(); err != nil {
		w.child = nil
		return fmt.Errorf("starting volcano-serve: %w", err)
	}
	defer os.Remove(addrFile)
	deadline := time.Now().Add(20 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			w.base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("volcano-serve did not start listening: %s", w.errs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.http = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.conns, MaxConnsPerHost: w.conns},
		Timeout:   5 * time.Second,
	}
	// Warm the daemon's plan cache with the repeated mix, on every
	// connection the run will use: a connection's first large responses
	// are slower than its later ones, and one left cold would split the
	// ORDER BY statements' latencies in two.
	warm := &result{}
	for _, st := range w.cycle {
		w.request(warm, st, nil, 0, -1)()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i < 4*len(w.cycle); i = int(next.Add(1)) {
				w.request(warm, w.hot[i%len(w.hot)], nil, 0, -1)()
			}
		}()
	}
	wg.Wait()
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	return nil
}

// close stops the daemon and waits for it to exit.
func (w *serveOpen) close() {
	if w.http != nil {
		w.http.CloseIdleConnections()
		w.http = nil
	}
	if w.child == nil {
		return
	}
	_ = w.child.Process.Signal(syscall.SIGINT) // already exited: Wait below reports it
	done := make(chan struct{})
	go func() {
		_ = w.child.Wait() // the exit status of a stopped daemon carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = w.child.Process.Kill()
		<-done
	}
	w.child = nil
}

// pick maps an arrival number to its statement.
func (w *serveOpen) pick(i int) *statement {
	if i%serveNovelEvery == serveNovelEvery-1 {
		return w.novel[(i/serveNovelEvery)%len(w.novel)]
	}
	return w.hot[(i-i/serveNovelEvery)%len(w.hot)]
}

// request sends one statement and returns a function that decodes and
// checks the response; the caller takes its completion time between the
// two, so that the bench's own decoding is not charged to the server.
// With a tracer, spans are recorded under root (the caller's "op" span).
func (w *serveOpen) request(r *result, st *statement, tr *tracer, op, root int) (finish func()) {
	sent := time.Now()
	sp := -1
	if tr != nil {
		sp = tr.begin("http.roundtrip", op, root)
	}
	status, body, err := w.post(st)
	rt := time.Since(sent)
	if tr != nil {
		tr.end(sp, int64(len(body)))
	}
	return func() {
		rec := reqRecord{roundtrip: rt, status: status, bytes: len(body)}
		defer func() {
			w.mu.Lock()
			r.attempted++
			w.last.records = append(w.last.records, rec)
			w.mu.Unlock()
		}()
		failf := func(format string, args ...any) {
			w.mu.Lock()
			r.fail(format, args...)
			w.mu.Unlock()
		}
		if err != nil {
			failf("%q: %v", st.SQL, err)
			return
		}
		if status != http.StatusOK {
			failf("%q: status %d", st.SQL, status)
			return
		}
		d := -1
		if tr != nil {
			d = tr.begin("bench.decode", op, root)
		}
		var res serve.Result
		err := json.Unmarshal(body, &res)
		if tr != nil {
			tr.end(d, 0)
		}
		if err != nil {
			failf("%q: undecodable response: %v", st.SQL, err)
			return
		}
		rec.degraded, rec.optimizeUS, rec.execUS = res.Degraded, res.OptimizeUS, res.ExecUS
		if tr != nil {
			// The server's own phases, as it reported them; where inside
			// the round trip they fell is not known, so they start with it.
			at := tr.startOf(sp)
			tr.add("serve.optimize", op, sp, at, time.Duration(res.OptimizeUS)*time.Microsecond, 0)
			tr.add("serve.exec", op, sp, at, time.Duration(res.ExecUS)*time.Microsecond, int64(len(res.Rows)))
			d = tr.begin("bench.verify", op, root)
		}
		err = check(w.cat, st.exp, res.Columns, res.Rows)
		if tr != nil {
			tr.end(d, 0)
		}
		if err != nil {
			failf("%q: %v", st.SQL, err)
			return
		}
		w.mu.Lock()
		if st.refCost > 0 {
			if !sameCost(res.Cost, st.refCost) && !res.Degraded {
				r.fail("%q: plan cost %v, reference optimum %v", st.SQL, res.Cost, st.refCost)
				w.mu.Unlock()
				return
			}
			r.ratioSum += res.Cost / st.refCost
			r.ratioN++
		}
		r.okay++
		w.mu.Unlock()
	}
}

// post sends one /query request and reads the whole response.
func (w *serveOpen) post(st *statement) (int, []byte, error) {
	body, err := json.Marshal(serve.Request{SQL: st.SQL, Params: st.Params})
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.http.Post(w.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (w *serveOpen) snapshot() (*metrics.Snapshot, error) {
	resp, err := w.http.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

func (w *serveOpen) run(d time.Duration) (*result, error) { return w.pass(d, nil) }

// pass runs phase A then phase B for d in total.
func (w *serveOpen) pass(d time.Duration, tr *tracer) (*result, error) {
	r := &result{}
	w.last = serveDetail{}
	var err error
	if w.last.before, err = w.snapshot(); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	dA := time.Duration(float64(d) * servePhaseAShare)
	firstA := w.arrivals
	start := time.Now()
	w.last.timingsA = openLoop(serveOpenRate, dA, w.conns, func(i int) func() {
		st := w.pick(firstA + i)
		root := -1
		if tr != nil {
			// The operation began when it was due, not when it was sent.
			due := time.Duration(i) * (time.Second / serveOpenRate)
			root = tr.add("op", i, -1, start.Sub(tr.epoch)+due, 0, 0)
			tr.add("loadgen.wait", i, root, start.Sub(tr.epoch)+due, time.Since(start)-due, 0)
		}
		finish := w.request(r, st, tr, i, root)
		if tr == nil {
			return finish
		}
		return func() {
			finish()
			tr.end(root, 0)
		}
	})
	for i := range w.last.records {
		w.last.records[i].phaseA = true
	}
	for _, t := range w.last.timingsA {
		r.opMS = append(r.opMS, ms(t.latency()))
	}
	w.arrivals += len(w.last.timingsA)
	// Latency percentiles per slice of consecutive arrivals, then the
	// median over the slices.
	var p50, p95 []float64
	for at := 0; at+serveSliceRequests <= len(r.opMS); at += serveSliceRequests {
		p50 = append(p50, percentile(r.opMS[at:at+serveSliceRequests], 0.50))
		p95 = append(p95, percentile(r.opMS[at:at+serveSliceRequests], 0.95))
	}
	r.e2e = map[string]float64{"op_p50_ms": median(p50), "op_p95_ms": median(p95)}

	// Phase B in segments, each a closed loop of its own: throughput and
	// server CPU per request are medians over the segments.
	pid := w.child.Process.Pid
	var tput, cpuMS []float64
	self0 := selfCPU()
	for seg := 0; seg < serveSegments; seg++ {
		okay0 := r.okay
		srv0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		n, wall := closedLoop((d-dA)/serveSegments, w.conns, w.arrivals, func(i int) {
			w.request(r, w.pick(i), nil, 0, -1)()
		})
		srv1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		w.arrivals += n
		w.last.requestsB += n
		w.last.srvCPU += srv1 - srv0
		okay := float64(r.okay - okay0)
		tput = append(tput, ratio(okay, wall.Seconds()))
		cpuMS = append(cpuMS, ratio(ms(srv1-srv0), okay))
	}
	w.last.benchCPU = selfCPU() - self0
	r.e2e["ops_per_s"], r.e2e["cpu_ms_per_op"] = median(tput), median(cpuMS)
	if w.last.after, err = w.snapshot(); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	if mb, err := peakRSSMB(pid); err == nil {
		r.rssMB = mb
	}

	// Allocation per operation: the statements again, in process. The
	// first 1300 arrivals are 19 whole cycles of the repeated mix and 65
	// novel statements, whatever the seed.
	const replayed = 20 * 65
	a0 := totalAlloc()
	for i := 0; i < replayed; i++ {
		if err := w.replayOne(w.pick(i)); err != nil {
			return nil, err
		}
	}
	r.e2e["alloc_kb_per_op"] = ratio(float64(totalAlloc()-a0)/1024, replayed)
	return r, nil
}

// replayOne runs one statement through the in-process database.
func (w *serveOpen) replayOne(st *statement) error {
	if _, err := queryVDB(w.replay, st); err != nil {
		return fmt.Errorf("in-process replay of %q: %w", st.SQL, err)
	}
	return nil
}

func (w *serveOpen) trace(d time.Duration, tr *tracer, out map[string]float64) (*result, error) {
	base, err := w.pass(d*4/10, nil)
	if err != nil {
		return nil, err
	}
	r, err := w.pass(d*6/10, tr)
	if err != nil {
		return nil, err
	}
	out["trace.overhead_share"] = overheadShare(base, r)
	r.merge(base)
	l := &w.last
	var late, rtMinusHandlers, respKB []float64
	var shed, degraded, okay int
	for _, t := range l.timingsA {
		late = append(late, ms(t.lateness()))
	}
	for _, rec := range l.records {
		respKB = append(respKB, float64(rec.bytes)/1024)
		switch {
		case rec.status == http.StatusServiceUnavailable:
			shed++
		case rec.status == http.StatusOK:
			okay++
			if rec.degraded {
				degraded++
			}
			if rec.phaseA {
				rtMinusHandlers = append(rtMinusHandlers, us(rec.roundtrip)-float64(rec.optimizeUS+rec.execUS))
			}
		}
	}
	out["loadgen.late_p95_ms"] = percentile(late, 0.95)
	out["loadgen.cpu_share"] = ratio(l.benchCPU.Seconds(), (l.benchCPU + l.srvCPU).Seconds())
	out["serve.client_p99_ms"] = percentile(r.opMS, 0.99)
	out["serve.outside_handler_us"] = median(rtMinusHandlers)
	out["serve.shed_share"] = ratio(float64(shed), float64(len(l.records)))
	out["serve.degraded_share"] = ratio(float64(degraded), float64(okay))
	out["serve.server_cpu_ms_per_req"] = ratio(ms(l.srvCPU), float64(l.requestsB))
	out["serve.resp_kb_per_req"] = mean(respKB)

	// The daemon's own view, as the difference of two /metrics scrapes.
	if b, a := l.before.Serve, l.after.Serve; b != nil && a != nil {
		eb, ea := b.Endpoints["/query"], a.Endpoints["/query"]
		if eb != nil && ea != nil {
			sum := ea.Latency.MeanUS*float64(ea.Latency.Count) - eb.Latency.MeanUS*float64(eb.Latency.Count)
			out["serve.handler_mean_us"] = ratio(sum, float64(ea.Latency.Count-eb.Latency.Count))
		}
	}
	if b, a := l.before.Cache, l.after.Cache; b != nil && a != nil {
		hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
		out["plancache.hit_share"] = ratio(hits, hits+misses)
		out["plancache.entries"] = float64(a.Entries)
		out["plancache.bytes"] = float64(a.CacheBytes)
		out["plancache.evictions_per_op"] = ratio(float64(a.Evictions-b.Evictions), float64(len(l.records)))
	}
	if b, a := l.before.Exec, l.after.Exec; b != nil && a != nil {
		out["exec.rows_out_per_s"] = ratio(float64(a.Rows-b.Rows), (d * 6 / 10).Seconds())
	}

	lt := tr.aggregate()
	out["vdb.optimize_us"] = medianUS(lt, "serve.optimize")
	out["vdb.exec_us"] = medianUS(lt, "serve.exec")
	out["trace.self_sum_share"] = selfSumShare(lt, "op",
		"loadgen.wait", "http.roundtrip", "serve.optimize", "serve.exec", "bench.decode", "bench.verify")
	return r, nil
}
