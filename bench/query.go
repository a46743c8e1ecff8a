package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/load"
	"repro/internal/plancache"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
	"repro/internal/vdb"
)

// The three in-process SQL workloads: one operation is one statement
// parsed, planned and executed through vdb.QueryCtx (QueryParamsCtx for
// parameterized statements), by one closed-loop client.

// fixedCatalog builds n tables R1..Rn of exactly rows rows each, with
// the column layout of datagen's generated tables (unique key id, join
// columns ja and jb, selection column v). datagen.ScaledCatalog draws
// every table's size within +-20% of the target from the seed, which
// moves every latency here by as much from one seed to the next; the
// benchmark fixes the sizes and lets the seed choose the contents.
func fixedCatalog(n int, rows int64) *rel.Catalog {
	cat := rel.NewCatalog()
	for i := 1; i <= n; i++ {
		t := cat.AddTable("R"+strconv.Itoa(i), rows, datagen.TableRowBytes)
		cat.AddColumn(t, "id", rows, 1, rows)
		cat.AddColumn(t, "ja", max(rows/6, 2), 1, max(rows/6, 2))
		cat.AddColumn(t, "jb", max(rows/12, 2), 1, max(rows/12, 2))
		cat.AddColumn(t, "v", 1000, 0, 999)
	}
	return cat
}

// statement is one workload statement with what its result is checked
// against.
type statement struct {
	load.Statement
	label string // exec-analytic's query name
	exp   *expectation
	// refCost is the optimum found by an unguided exhaustive search;
	// 0 for parameterized statements, whose dynamic plans are not rated.
	refCost float64
}

// prepareStatement parses a statement, evaluates it with the oracle,
// and computes its reference plan cost.
func prepareStatement(cat *rel.Catalog, data map[string][][]int64, ls load.Statement, label string) (*statement, error) {
	parsed, err := sqlish.Parse(cat, ls.SQL)
	if err != nil {
		return nil, fmt.Errorf("%q: %w", ls.SQL, err)
	}
	st := &statement{Statement: ls, label: label}
	if st.exp, err = expect(cat, data, parsed.Tree, parsed.Required, ls.Params); err != nil {
		return nil, fmt.Errorf("%q: %w", ls.SQL, err)
	}
	if len(ls.Params) == 0 {
		opt := core.NewOptimizer(relopt.New(cat, relopt.DefaultConfig()), nil)
		plan, err := opt.OptimizeCtx(context.Background(), opt.InsertQuery(parsed.Tree), parsed.Required)
		if err != nil {
			return nil, fmt.Errorf("%q: reference search: %w", ls.SQL, err)
		}
		if err := vetPlan(plan, parsed.Required); err != nil {
			return nil, fmt.Errorf("%q: reference search: %w", ls.SQL, err)
		}
		st.refCost = planCost(plan)
	}
	return st, nil
}

// prepareCycle prepares a cycle of statements, each distinct statement
// once.
func prepareCycle(cat *rel.Catalog, data map[string][][]int64, stmts []labeled) ([]*statement, error) {
	prepared := map[string]*statement{}
	var cycle []*statement
	for _, ls := range stmts {
		key := ls.SQL + "|" + fmt.Sprint(ls.Params)
		if prepared[key] == nil {
			st, err := prepareStatement(cat, data, ls.Statement, ls.label)
			if err != nil {
				return nil, err
			}
			prepared[key] = st
		}
		cycle = append(cycle, prepared[key])
	}
	return cycle, nil
}

// queryVDB issues one statement through a database, as the daemon's
// /query handler does.
func queryVDB(db *vdb.DB, st *statement) (*vdb.Result, error) {
	if len(st.Params) > 0 {
		return db.QueryParamsCtx(context.Background(), st.SQL, st.Params...)
	}
	return db.QueryCtx(context.Background(), st.SQL)
}

// rssSampler tracks the highest resident set size of this process while
// a timed run is in progress. VmHWM would also cover set-up, whose
// oracle evaluation and raw generated rows outweigh anything the system
// under test allocates, so the run samples VmRSS instead.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64 // MiB
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return
	}
	if mb := pages * float64(os.Getpagesize()) / (1 << 20); mb > s.peak {
		s.peak = mb
	}
}

// finish stops the sampler and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	s.sample()
	return s.peak
}

// shuffledCycles lays the cycle out many times over, each copy in an
// order of its own. Issued in one fixed order, a cycle's allocation
// pattern repeats exactly, the garbage collector's cycles lock onto it,
// and whether the slowest statement always or never runs beside a
// collection is settled once per process: its latency then differs by
// half between two runs of the same binary. Every slice still holds
// whole cycles, so its composition does not change.
func shuffledCycles(rng *rand.Rand, cycle []*statement) []*statement {
	copies := 1 + 8192/len(cycle)
	out := make([]*statement, 0, copies*len(cycle))
	for c := 0; c < copies; c++ {
		at := len(out)
		out = append(out, cycle...)
		rng.Shuffle(len(cycle), func(i, j int) { out[at+i], out[at+j] = out[at+j], out[at+i] })
	}
	return out
}

// vdbWorkload is the state shared by exec-analytic, point-hot and
// point-churn; they differ in sizes and in the statements they cycle.
type vdbWorkload struct {
	tables     int
	rows       int64
	cacheBytes int64
	warmOps    int // statements of the cycle run before timing
	// sliceOps is the length of one slice of the timed run: a whole
	// number of cycles, so that every slice has the same composition
	// (except point-churn, whose 1024 statements are alike in kind).
	sliceOps int
	// statements generates the cycle of statements issued in order.
	statements func(rng *rand.Rand) []labeled

	seed  int64
	cat   *rel.Catalog
	db    *vdb.DB
	cycle []*statement
	// order is the sequence actually issued: the cycle over and over,
	// each time in another order.
	order []*statement

	// What vdb reported during the last untraced run, for the per-layer
	// metrics of the traced run.
	last struct {
		optimizeUS, execUS []float64
		cached, degraded   int
		cache              plancache.Counters // delta over the run
		opMeanUS           float64
	}
}

type labeled struct {
	load.Statement
	label string
}

func unlabeled(stmts []load.Statement) []labeled {
	out := make([]labeled, len(stmts))
	for i, s := range stmts {
		out[i] = labeled{Statement: s}
	}
	return out
}

func (w *vdbWorkload) sizes() string {
	return fmt.Sprintf("%d tables x %d rows, cycle of %d statements, plan cache %d bytes", w.tables, w.rows, len(w.cycle), w.cacheBytes)
}

func (w *vdbWorkload) close() {}

// shippedOptions is what volcano-serve opens its database with: guided
// search, a plan cache, the default executor.
func shippedOptions(cacheBytes int64) *vdb.Options {
	return &vdb.Options{Guided: true, CacheBytes: cacheBytes}
}

func (w *vdbWorkload) setup(seed int64) error {
	w.seed = seed
	w.cat = fixedCatalog(w.tables, w.rows)
	data := datagen.New(seed).Rows(w.cat)
	w.db = vdb.Open(w.cat, data, shippedOptions(w.cacheBytes))
	var err error
	if w.cycle, err = prepareCycle(w.cat, data, w.statements(rand.New(rand.NewSource(seed)))); err != nil {
		return err
	}
	w.order = shuffledCycles(rand.New(rand.NewSource(seed)), w.cycle)
	warm := &result{}
	for i := 0; i < w.warmOps; i++ {
		w.op(warm, w.cycle[i%len(w.cycle)])
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	// The generated rows and the oracle's intermediates are garbage from
	// here on; hand them back before the run's memory is sampled.
	debug.FreeOSMemory()
	return nil
}

// op issues one statement through vdb, times it, and checks the result.
func (w *vdbWorkload) op(r *result, st *statement) *vdb.Result {
	start := time.Now()
	res, err := queryVDB(w.db, st)
	wall := time.Since(start)
	r.attempted++
	r.opMS = append(r.opMS, ms(wall))
	if err != nil {
		r.fail("%q: %v", st.SQL, err)
		return nil
	}
	if err := check(w.cat, st.exp, res.Columns, res.Rows); err != nil {
		r.fail("%q: %v", st.SQL, err)
		return nil
	}
	if st.refCost > 0 {
		if c := planCost(res.Plan); !sameCost(c, st.refCost) && !res.Degraded {
			r.fail("%q: plan cost %v, reference optimum %v", st.SQL, c, st.refCost)
			return nil
		}
		r.ratioSum += planCost(res.Plan) / st.refCost
		r.ratioN++
	}
	r.okay++
	r.busy += wall
	return res
}

func (w *vdbWorkload) run(d time.Duration) (*result, error) { return w.timed(d, nil), nil }

// timed cycles the statements through vdb for d, recording what vdb and
// its counters report. beside, when set, runs next to every operation
// (the traced run issues the same statement through its shadow there):
// after it on even turns and before it on odd ones, because whichever
// of a pair runs second is a little slower.
func (w *vdbWorkload) timed(d time.Duration, beside func(i int, st *statement)) *result {
	r := &result{}
	l := &w.last
	l.optimizeUS, l.execUS, l.cached, l.degraded = l.optimizeUS[:0], l.execUS[:0], 0, 0
	cache0 := w.db.PlanCache().Counters()
	sliced(r, d, w.sliceOps, func(i int) {
		st := w.order[i%len(w.order)]
		if beside != nil && i%2 == 1 {
			beside(i, st)
		}
		if res := w.op(r, st); res != nil {
			l.optimizeUS = append(l.optimizeUS, us(res.OptimizeTime))
			l.execUS = append(l.execUS, us(res.ExecTime))
			if res.Cached {
				l.cached++
			}
			if res.Degraded {
				l.degraded++
			}
		}
		if beside != nil && i%2 == 0 {
			beside(i, st)
		}
	})
	l.cache = w.db.PlanCache().Counters()
	l.cache.CacheHits -= cache0.CacheHits
	l.cache.CacheMisses -= cache0.CacheMisses
	l.cache.Evictions -= cache0.Evictions
	l.opMeanUS = ratio(us(r.busy), float64(r.okay))
	return r
}

// shadow is the bench's own copy of what vdb.QueryCtx does, built from
// the same public functions of each layer in the same order, so that a
// span can be recorded around every layer call from outside.
type shadow struct {
	cat    *rel.Catalog
	model  *relopt.Model
	search core.Options
	cache  *plancache.Cache
	data   *exec.DB
}

func newShadow(cat *rel.Catalog, data *exec.DB, cacheBytes int64) *shadow {
	cfg := relopt.Config{}
	return &shadow{
		cat:    cat,
		model:  relopt.New(cat, cfg),
		search: core.Options{Guidance: core.GuidanceOptions{SeedPlanner: relopt.New(cat, cfg).SeedPlanner()}},
		cache:  plancache.New(plancache.Options{MaxBytes: cacheBytes}),
		data:   data,
	}
}

// query runs one statement through the layers, recording spans under a
// root span "op". It returns the rows, their column names, the plan's
// cache entry, and the run span's duration.
func (s *shadow) query(tr *tracer, op int, st *statement) ([]exec.Row, []string, *plancache.Entry, time.Duration, error) {
	ctx := context.Background()
	root := tr.begin("op", op, -1)
	defer tr.end(root, 0)

	sp := tr.begin("sqlish.parse", op, root)
	parsed, err := sqlish.Parse(s.cat, st.SQL)
	tr.end(sp, 0)
	if err != nil {
		return nil, nil, nil, 0, err
	}

	sp = tr.begin("core.fingerprint", op, root)
	fp, canon := core.FingerprintQuery(s.model, parsed.Tree, parsed.Required)
	tr.end(sp, int64(len(canon)))

	do := tr.begin("plancache.do", op, root)
	entry, outcome, err := s.cache.Do(fp, canon, func() (*plancache.Entry, error) {
		if len(st.Params) == 1 {
			sp := tr.begin("relopt.dynamic", op, do)
			res, err := relopt.OptimizeDynamic(s.cat, relopt.Config{}, parsed.Tree, parsed.Required, nil)
			tr.end(sp, 0)
			if err != nil {
				return nil, err
			}
			return &plancache.Entry{Plan: res.Plan, Cost: res.Plan.Cost, Dynamic: res.Alternatives > 1, NParams: 1}, nil
		}
		sp := tr.begin("relopt.model_new", op, do)
		model := relopt.New(s.cat, relopt.Config{})
		tr.end(sp, 0)
		sp = tr.begin("core.insert", op, do)
		opts := s.search
		opt := core.NewOptimizer(model, &opts)
		g := opt.InsertQuery(parsed.Tree)
		tr.end(sp, 0)
		sp = tr.begin("core.optimize", op, do)
		plan, err := opt.OptimizeCtx(ctx, g, parsed.Required)
		tr.end(sp, int64(opt.Stats().Steps()))
		if err != nil {
			return nil, err
		}
		if plan == nil {
			return nil, fmt.Errorf("no plan satisfies the query")
		}
		return &plancache.Entry{Plan: plan, Cost: plan.Cost, Stats: *opt.Stats()}, nil
	})
	hit := int64(0)
	if outcome == plancache.OutcomeHit {
		hit = 1
	}
	tr.end(do, hit)
	if err != nil {
		return nil, nil, nil, 0, err
	}

	sp = tr.begin("exec.build", op, root)
	it, schema, err := exec.BuildPlanOpts(ctx, s.data, entry.Plan, st.Params, exec.Options{})
	tr.end(sp, 0)
	if err != nil {
		return nil, nil, nil, 0, err
	}

	hint := 0
	if props, ok := entry.Plan.LogProps.(*rel.Props); ok && props.Rows > 0 {
		hint = int(props.Rows)
	}
	sp = tr.begin("exec.run", op, root)
	t0 := time.Now()
	rows, err := exec.CollectSized(it, hint)
	ran := time.Since(t0)
	tr.end(sp, int64(len(rows)))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return rows, columnNames(s.cat, schema.Cols), entry, ran, nil
}

// shadowLayers are the span names whose self times make up a shadow
// operation.
var shadowLayers = []string{"sqlish.parse", "core.fingerprint", "plancache.do", "relopt.dynamic",
	"relopt.model_new", "core.insert", "core.optimize", "exec.build", "exec.run"}

func (w *vdbWorkload) trace(d time.Duration, tr *tracer, out map[string]float64) (*result, error) {
	// The shadow owns its tables: generate and load them again, which is
	// also where the two set-up layers are timed.
	t0 := time.Now()
	data := datagen.New(w.seed).Rows(w.cat)
	genS := time.Since(t0).Seconds()
	t0 = time.Now()
	edb := exec.FromData(w.cat, data)
	loadS := time.Since(t0).Seconds()
	totalRows := float64(w.tables) * float64(w.rows)
	out["datagen.rows_per_s"] = ratio(totalRows, genS)
	out["exec.load_rows_per_s"] = ratio(totalRows, loadS)

	sh := newShadow(w.cat, edb, w.cacheBytes)
	warm := newTracer()
	for i := 0; i < w.warmOps; i++ {
		if _, _, _, _, err := sh.query(warm, i, w.cycle[i%len(w.cycle)]); err != nil {
			return nil, fmt.Errorf("shadow warm-up: %w", err)
		}
	}

	// Every statement goes through vdb untraced and then through the
	// shadow traced, back to back, so both see the same heap and caches.
	r := &result{}
	runMS := map[string][]float64{}
	plans := map[string]*core.Plan{}
	var leafUS float64
	var rowsOut int64
	var runBusy time.Duration
	base := w.timed(d/2, func(i int, st *statement) {
		t0 := time.Now()
		rows, names, entry, ran, err := sh.query(tr, i, st)
		wall := time.Since(t0)
		r.attempted++
		r.opMS = append(r.opMS, ms(wall))
		if err == nil {
			err = check(w.cat, st.exp, names, rows)
		}
		if err != nil {
			r.fail("shadow %q: %v", st.SQL, err)
			return
		}
		r.okay++
		rowsOut += int64(len(rows))
		runBusy += ran
		if st.label != "" {
			runMS[st.label] = append(runMS[st.label], ms(ran))
			plans[st.label] = entry.Plan
		}
	})
	out["trace.overhead_share"] = pairedOverheadShare(base, r)
	lt := tr.aggregate()
	for _, l := range []string{"sqlish.parse", "core.fingerprint", "plancache.do", "exec.build", "exec.run"} {
		for _, v := range lt.durations[l] {
			leafUS += v
		}
	}
	n := float64(r.attempted)
	out["sqlish.parse_us"] = medianUS(lt, "sqlish.parse")
	out["core.fingerprint_us"] = medianUS(lt, "core.fingerprint")
	out["relopt.model_new_us"] = medianUS(lt, "relopt.model_new")
	out["relopt.dynamic_ms"] = medianUS(lt, "relopt.dynamic") / 1e3
	out["core.insert_us"] = medianUS(lt, "core.insert")
	out["exec.build_us"] = medianUS(lt, "exec.build")
	if len(runMS) == 0 {
		out["exec.tiny_run_us"] = medianUS(lt, "exec.run")
	}
	out["exec.rows_out_per_s"] = ratio(float64(rowsOut), runBusy.Seconds())
	for label, v := range runMS {
		out["exec.run_ms_"+label] = median(v)
	}
	out["trace.self_sum_share"] = selfSumShare(lt, "op", shadowLayers...)

	// What vdb itself reported during the untraced run.
	l := &w.last
	ops := float64(len(l.optimizeUS))
	out["vdb.optimize_us"] = median(l.optimizeUS)
	out["vdb.exec_us"] = median(l.execUS)
	out["vdb.cached_share"] = ratio(float64(l.cached), ops)
	out["vdb.degraded_share"] = ratio(float64(l.degraded), ops)
	out["vdb.overhead_us"] = l.opMeanUS - ratio(leafUS, n)
	out["plancache.hit_share"] = ratio(float64(l.cache.CacheHits), float64(l.cache.CacheHits+l.cache.CacheMisses))
	out["plancache.evictions_per_op"] = ratio(float64(l.cache.Evictions), ops)
	out["plancache.entries"] = float64(l.cache.Entries)
	out["plancache.bytes"] = float64(l.cache.CacheBytes)

	w.probeCache(sh, out)
	if len(plans) > 0 {
		if err := w.probeExecutors(r, edb, plans, out); err != nil {
			return nil, err
		}
	}
	r.merge(base)
	return r, nil
}

// probeCache times Cache.Do directly, with a compute that does nothing:
// hits on stored entries, and misses on never-seen fingerprints that
// insert and, once the budget is full, evict.
func (w *vdbWorkload) probeCache(sh *shadow, out map[string]float64) {
	type key struct {
		fp    core.Fingerprint
		canon string
		entry *plancache.Entry
	}
	var keys []key
	seen := map[core.Fingerprint]bool{}
	for _, st := range w.cycle {
		parsed, err := sqlish.Parse(w.cat, st.SQL)
		if err != nil {
			continue
		}
		fp, canon := core.FingerprintQuery(sh.model, parsed.Tree, parsed.Required)
		if e, ok := sh.cache.Get(fp, canon); ok && !seen[fp] {
			seen[fp] = true
			keys = append(keys, key{fp, canon, e})
		}
		if len(keys) == 32 {
			break
		}
	}
	if len(keys) == 0 {
		return
	}
	cache := plancache.New(plancache.Options{MaxBytes: w.cacheBytes})
	for _, k := range keys {
		cache.Put(k.fp, k.canon, k.entry)
	}
	const rounds = 20000
	hitUS := make([]float64, 0, rounds)
	missUS := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		_, _, _ = cache.Do(k.fp, k.canon, func() (*plancache.Entry, error) { return k.entry, nil })
		hitUS = append(hitUS, us(time.Since(t0)))
	}
	for i := 0; i < rounds; i++ {
		k := keys[i%len(keys)]
		fresh := core.Fingerprint{Hi: uint64(i+1) * 0x9e3779b97f4a7c15, Lo: uint64(i)}
		t0 := time.Now()
		_, _, _ = cache.Do(fresh, k.canon, func() (*plancache.Entry, error) { return k.entry, nil })
		missUS = append(missUS, us(time.Since(t0)))
	}
	out["plancache.do_hit_us"] = median(hitUS)
	out["plancache.do_miss_us"] = median(missUS)
}

// probeExecutors runs exec-analytic's four plans under the executor
// configurations that are not the default: the columnar engine, and the
// parallel model's exchange plan at degree 2 for join3-orderby. Each
// result is checked like a timed operation's.
func (w *vdbWorkload) probeExecutors(r *result, edb *exec.DB, plans map[string]*core.Plan, out map[string]float64) error {
	byLabel := map[string]*statement{}
	for _, st := range w.cycle {
		byLabel[st.label] = st
	}
	const reps = 5
	timed := func(label string, plan *core.Plan, opts exec.Options, ordered bool) (float64, float64, error) {
		st := byLabel[label]
		var wall []float64
		var allocKB float64
		for i := 0; i < reps; i++ {
			a0 := totalAlloc()
			t0 := time.Now()
			rows, schema, err := exec.RunOpts(context.Background(), edb, plan, nil, opts)
			wall = append(wall, ms(time.Since(t0)))
			allocKB += float64(totalAlloc()-a0) / 1024
			r.attempted++
			if err == nil {
				exp := *st.exp
				if !ordered {
					exp.order = nil
				}
				err = check(w.cat, &exp, columnNames(w.cat, schema.Cols), rows)
			}
			if err != nil {
				r.fail("executor probe %s: %v", label, err)
			}
		}
		return median(wall), allocKB / reps, nil
	}
	var allocSum float64
	for _, label := range analyticQueryNames {
		plan := plans[label]
		if plan == nil {
			continue
		}
		_, allocKB, _ := timed(label, plan, exec.Options{}, true)
		allocSum += allocKB
		colMS, _, _ := timed(label, plan, exec.Options{Columnar: true}, true)
		out["exec.col_ms_"+label] = colMS
	}
	out["exec.alloc_kb_per_op"] = allocSum / float64(len(analyticQueryNames))

	// The exchange plan needs the parallel model and a partitioning
	// requirement in place of the sort.
	const label = "join3-orderby"
	parsed, err := sqlish.Parse(w.cat, byLabel[label].SQL)
	if err != nil {
		return err
	}
	cfg := relopt.DefaultConfig()
	cfg.Parallel, cfg.Degree = true, 2
	opt := core.NewOptimizer(relopt.New(w.cat, cfg), nil)
	pplan, err := opt.OptimizeCtx(context.Background(), opt.InsertQuery(parsed.Tree),
		relopt.HashPartitioned(w.cat.ColumnID("R1", "ja"), 2))
	if err != nil || pplan == nil {
		return fmt.Errorf("exchange probe: no parallel plan (%v)", err)
	}
	exMS, _, _ := timed(label, pplan, exec.Options{}, false)
	out["exec.exchange2_ms_"+label] = exMS
	return nil
}

// ------------------------------------------------------------ exec-analytic

func newAnalytic() *vdbWorkload {
	// The four queries of internal/fig4's e2e experiment, as SQL. Each
	// selection keeps the experiment's selectivity (0.5 or 0.3) but is
	// written as a range, lo <= v < hi, in place of v < c: the optimizer
	// multiplies the two bounds' selectivities and so overestimates
	// every cardinality. With v < c the estimate is accurate, the actual
	// count lands on either side of it depending on the seed, and
	// because the executor sizes results and hash tables from the
	// estimate, allocation per operation (and some of the time) flips
	// by a quarter from one seed to the next.
	sql := map[string]string{
		"scan-filter": "SELECT * FROM R1 WHERE R1.v >= 250 AND R1.v < 750",
		"join2": "SELECT * FROM R1, R2 WHERE R1.ja = R2.ja " +
			"AND R1.v >= 350 AND R1.v < 650 AND R2.v >= 350 AND R2.v < 650",
		"join3-orderby": "SELECT * FROM R1, R2, R3 WHERE R1.ja = R2.ja AND R2.jb = R3.id " +
			"AND R1.v >= 350 AND R1.v < 650 AND R2.v >= 350 AND R2.v < 650 AND R3.v >= 350 AND R3.v < 650 ORDER BY R1.ja",
		"groupby": "SELECT R1.ja, COUNT(*), SUM(R1.v) FROM R1 WHERE R1.v >= 250 AND R1.v < 750 GROUP BY R1.ja",
	}
	// Ten slots, so that both percentiles sit in the middle of one
	// query's times and not in the gap between two queries: ranked by
	// latency the cycle is scan-filter x3, join2 x4, groupby x2,
	// join3-orderby x1, which puts the median on join2's median and the
	// 95th percentile on join3-orderby's.
	slots := []string{"join2", "scan-filter", "groupby", "join2", "scan-filter",
		"join3-orderby", "join2", "scan-filter", "groupby", "join2"}
	return &vdbWorkload{
		tables: analyticTables, rows: analyticRows, cacheBytes: serveCacheBytes, warmOps: len(slots), sliceOps: 2 * len(slots),
		statements: func(*rand.Rand) []labeled {
			var out []labeled
			for _, s := range slots {
				out = append(out, labeled{load.Statement{SQL: sql[s]}, s})
			}
			return out
		},
	}
}

// ---------------------------------------------------------------- point-hot

// commuteFrom rewrites "... FROM A, B, C WHERE ..." with the FROM list
// reversed: another spelling of the same query.
func commuteFrom(sql string) string {
	i := strings.Index(sql, " FROM ")
	j := strings.Index(sql, " WHERE ")
	if i < 0 || j < i {
		return sql
	}
	tables := strings.Split(sql[i+len(" FROM "):j], ", ")
	for a, b := 0, len(tables)-1; a < b; a, b = a+1, b-1 {
		tables[a], tables[b] = tables[b], tables[a]
	}
	return sql[:i] + " FROM " + strings.Join(tables, ", ") + sql[j:]
}

// hotStatements is point-hot's (and serve-open's) repeated mix: the
// daemon's demo workload plus a commuted spelling of each statement.
func hotStatements() []load.Statement {
	var out []load.Statement
	for _, s := range load.ChainWorkload(pointTables, 16) {
		out = append(out, s, load.Statement{SQL: commuteFrom(s.SQL), Params: s.Params})
	}
	return out
}

// hotCycle orders the statements into the cycle the workloads issue.
// 28 of the 32 are distinct, and by latency they fall into clusters:
// small selections (16 statements), GROUP BY (6, some 800 rows out) and
// ORDER BY (6, 5000 rows out, the four-table chain written R4, R3, R2,
// R1 the slowest by a tenth).
// Issued once each, the median falls exactly between the first two
// clusters and the 95th percentile between two ORDER BY statements, and
// both jump from run to run. So the small statements are issued three
// times per cycle and the slowest statement six times: 65 operations, of
// which the small ones are 74% (the median is theirs, and fixed costs
// are what this workload is about) and the slowest statement 9% (the
// 95th percentile is the median of its latencies).
func hotCycle() []load.Statement {
	weight := func(sql string) int {
		switch {
		case strings.Contains(sql, "GROUP BY"):
			return 1
		case strings.Contains(sql, "ORDER BY"):
			if strings.Contains(sql, " FROM R4, ") {
				return 6
			}
			return 1
		}
		return 3
	}
	var out []load.Statement
	all := hotStatements()
	for rep := 0; rep < 6; rep++ {
		for i, s := range all {
			// ChainWorkload repeats a few statements; the repeats count once.
			first := true
			for _, earlier := range all[:i] {
				if earlier.SQL == s.SQL && fmt.Sprint(earlier.Params) == fmt.Sprint(s.Params) {
					first = false
				}
			}
			if first && weight(s.SQL) > rep {
				out = append(out, s)
			}
		}
	}
	return out
}

func newPointHot() *vdbWorkload {
	cycle := unlabeled(hotCycle())
	return &vdbWorkload{
		tables: pointTables, rows: pointRows, cacheBytes: serveCacheBytes, warmOps: len(cycle), sliceOps: 2 * len(cycle),
		statements: func(*rand.Rand) []labeled { return cycle },
	}
}

// -------------------------------------------------------------- point-churn

// churnStatement draws the i-th small statement: a chain over 2, 3 or 4
// consecutive tables with two selections, as a plain projection, an
// ORDER BY, a GROUP BY or a parameterized statement. Length and kind go
// round in turn, so that every seed's statements have the same make-up;
// the first table and the constants are drawn, and make almost every
// statement a distinct plan-cache key.
func churnStatement(rng *rand.Rand, i int) load.Statement {
	k := 2 + i%3
	first := 1 + rng.Intn(pointTables-k+1)
	t := func(i int) string { return "R" + strconv.Itoa(first+i) }
	from, where := t(0), ""
	for i := 1; i < k; i++ {
		from += ", " + t(i)
		where += fmt.Sprintf("%s.ja = %s.id AND ", t(i-1), t(i))
	}
	lo := 2 + rng.Intn(58)
	where += fmt.Sprintf("%s.v < %d", t(k-1), 100+rng.Intn(900))
	switch i / 3 % 4 {
	case 0:
		return load.Statement{SQL: fmt.Sprintf("SELECT %s.id FROM %s WHERE %s AND %s.v < %d", t(0), from, where, t(0), lo)}
	case 1:
		return load.Statement{SQL: fmt.Sprintf("SELECT %s.id, %s.v FROM %s WHERE %s AND %s.v < %d ORDER BY %s.id", t(0), t(0), from, where, t(0), lo, t(0))}
	case 2:
		return load.Statement{SQL: fmt.Sprintf("SELECT %s.ja, COUNT(*) FROM %s WHERE %s AND %s.v < %d GROUP BY %s.ja", t(0), from, where, t(0), lo, t(0))}
	}
	return load.Statement{
		SQL:    fmt.Sprintf("SELECT %s.id FROM %s WHERE %s AND %s.v < $1", t(0), from, where, t(0)),
		Params: []int64{int64(lo)},
	}
}

// churnStatements draws n distinct statements.
func churnStatements(rng *rand.Rand, n int) []load.Statement {
	seen := map[string]bool{}
	var out []load.Statement
	for len(out) < n {
		s := churnStatement(rng, len(out))
		if !seen[s.SQL] {
			seen[s.SQL] = true
			out = append(out, s)
		}
	}
	return out
}

func newPointChurn() *vdbWorkload {
	return &vdbWorkload{
		tables: pointTables, rows: pointRows, cacheBytes: churnCacheBytes, warmOps: 128, sliceOps: 256,
		statements: func(rng *rand.Rand) []labeled { return unlabeled(churnStatements(rng, churnCycle)) },
	}
}
