package exec

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// Options configures plan execution.
type Options struct {
	// BatchSize is the rows moved per operator call; zero means
	// DefaultBatchSize. Size 1 with NoFusion reproduces the
	// row-at-a-time engine's cost shape exactly.
	BatchSize int
	// ExchangeWorkers is the number of producer goroutines per exchange
	// operator; zero means the exchange's partitioning degree. Multiple
	// producers require a stripe-safe input subplan (scan, filter,
	// project, sort chains); other inputs fall back to one producer.
	ExchangeWorkers int
	// NoFusion selects the row kernels with scan-filter fusion off, so
	// every operator boundary stays a data transfer: the row-engine A/B
	// baseline. Without it the builder uses the columnar kernels wherever
	// a plan node is column-capable (see builder.colCapable) and the row
	// kernels, fused, everywhere else.
	NoFusion bool
	// Columnar no longer selects anything: the columnar kernels are the
	// default.
	//
	// Deprecated: the builder ignores it.
	Columnar bool
	// Spools is the shared store the Materialize/Reuse operators of one
	// multi-query batch communicate through; every plan of the batch
	// must be built and run against the same store, in batch order. Nil
	// gets a private per-build store, which only suffices when a plan
	// contains its own Materialize nodes.
	Spools *SpoolStore
}

// BuildPlan translates an optimizer plan into an iterator tree over the
// database. Partitioned plans (delivered partitioning from the parallel
// model) are instantiated once per partition and merged by a Gather
// operator running the partitions in parallel goroutines.
func BuildPlan(db *DB, plan *core.Plan) (Iterator, *Schema, error) {
	return BuildPlanOpts(nil, db, plan, nil, Options{})
}

// BuildPlanParams is BuildPlan for incompletely specified queries:
// params supplies the runtime values of parameterized predicates
// (1-based indexes), and choose-plan nodes select their alternative
// using the bound values before any iterator is constructed.
func BuildPlanParams(db *DB, plan *core.Plan, params []int64) (Iterator, *Schema, error) {
	return BuildPlanOpts(nil, db, plan, params, Options{})
}

// BuildPlanOpts is the fully general entry point: a nil ctx means no
// cancellation; opts tunes batch size, exchange parallelism, and fusion.
func BuildPlanOpts(ctx context.Context, db *DB, plan *core.Plan, params []int64, opts Options) (Iterator, *Schema, error) {
	b := &builder{db: db, ctx: ctx, opts: opts, exch: make(map[*core.Plan]exchEntry), params: params}
	if part := deliveredPart(plan); part.Kind == relopt.PartHash {
		parts := make([]Iterator, part.Degree)
		var schema *Schema
		for i := 0; i < part.Degree; i++ {
			it, s, err := b.build(plan, i)
			if err != nil {
				return nil, nil, err
			}
			parts[i], schema = it, s
		}
		// A sorted partitioned plan merges order-preservingly.
		if keys := sortKeysFor(plan, schema); len(keys) > 0 {
			g := NewGatherOrdered(parts, keys)
			g.SetBatchSize(opts.BatchSize)
			g.ctx = ctx
			return g, schema, nil
		}
		g := NewGather(parts)
		g.ctx = ctx
		return g, schema, nil
	}
	return b.build(plan, -1)
}

// Run builds and drains a plan.
func Run(db *DB, plan *core.Plan) ([]Row, *Schema, error) {
	return RunParams(db, plan, nil)
}

// RunParams builds and drains a plan with bound parameters.
func RunParams(db *DB, plan *core.Plan, params []int64) ([]Row, *Schema, error) {
	return RunOpts(nil, db, plan, params, Options{})
}

// RunOpts builds and drains a plan under a context and execution options.
func RunOpts(ctx context.Context, db *DB, plan *core.Plan, params []int64, opts Options) ([]Row, *Schema, error) {
	it, schema, err := BuildPlanOpts(ctx, db, plan, params, opts)
	if err != nil {
		db.countRun(0, err)
		return nil, nil, err
	}
	rows, err := Collect(it)
	db.countRun(len(rows), err)
	return rows, schema, err
}

func deliveredPart(plan *core.Plan) relopt.Partitioning {
	if pp, ok := plan.Delivered.(*relopt.PhysProps); ok {
		return pp.Part
	}
	return relopt.Partitioning{}
}

// sortKeysFor resolves the plan's delivered sort order against the
// physical schema; nil when the plan is unsorted (or a sort column is
// not in the output).
func sortKeysFor(plan *core.Plan, s *Schema) []sortKey {
	pp, ok := plan.Delivered.(*relopt.PhysProps)
	if !ok || len(pp.Sort) == 0 {
		return nil
	}
	keys := make([]sortKey, 0, len(pp.Sort))
	for _, oc := range pp.Sort {
		if !s.Has(oc.Col) {
			return nil
		}
		keys = append(keys, sortKey{pos: s.Pos(oc.Col), desc: oc.Desc})
	}
	return keys
}

// rowsHint converts a node's estimated output cardinality into a hash
// table pre-size; zero when no estimate is available.
func rowsHint(plan *core.Plan) int {
	if props, ok := plan.LogProps.(*rel.Props); ok {
		if n := int(props.Rows); n > 0 {
			return n
		}
	}
	return 0
}

// distinctHint estimates the distinct values of one column in a plan's
// output (0 = unknown).
func distinctHint(plan *core.Plan, col rel.ColID) int {
	if props, ok := plan.LogProps.(*rel.Props); ok {
		if st, ok := props.Stat(col); ok {
			if n := int(st.Distinct); n > 0 {
				return n
			}
		}
	}
	return 0
}

// stripeSafe reports whether a subplan may be instantiated once per
// exchange producer with striped base scans: together the stripes
// produce exactly the serial subplan's multiset. True only for unary
// multiset-preserving chains over a single scan; joins, grouping, and
// set operations (whose instances would recompute, not partition) are
// excluded.
func stripeSafe(plan *core.Plan) bool {
	switch plan.Op.(type) {
	case *relopt.FileScan:
		return true
	case *relopt.Filter, *relopt.ProjectOp, *relopt.Sort:
		return stripeSafe(plan.Inputs[0])
	}
	return false
}

type builder struct {
	db   *DB
	ctx  context.Context
	opts Options
	// exch holds the shared streaming state of each exchange node,
	// one producer set per node regardless of how many partition
	// instances consume it. The physical schema is cached with it: a
	// commuted join's row layout can differ from the logical column
	// order of its equivalence class.
	exch map[*core.Plan]exchEntry
	// params are the runtime values bound to parameterized predicates.
	params []int64
	// stripe/stripes restrict base scans while building one exchange
	// producer's subplan instance.
	stripe, stripes int
}

type exchEntry struct {
	state  *exchangeState
	schema *Schema
}

// spools returns the batch's shared spool store, creating a private one
// on first use when the caller supplied none.
func (b *builder) spools() *SpoolStore {
	if b.opts.Spools == nil {
		b.opts.Spools = NewSpoolStore()
	}
	return b.opts.Spools
}

// bind substitutes bound parameter values into predicates.
func (b *builder) bind(preds []rel.Pred) ([]rel.Pred, error) {
	out := append([]rel.Pred(nil), preds...)
	for i, p := range out {
		if !p.IsParam() {
			continue
		}
		if p.Param > len(b.params) {
			return nil, fmt.Errorf("exec: predicate %s needs parameter $%d, %d bound", p, p.Param, len(b.params))
		}
		out[i].Val = b.params[p.Param-1]
		out[i].Param = 0
	}
	return out, nil
}

// schemaFor derives the output schema of a plan node from its logical
// properties; group-by nodes append unnamed aggregate columns.
func schemaFor(plan *core.Plan) *Schema {
	props := plan.LogProps.(*rel.Props)
	switch op := plan.Op.(type) {
	case *relopt.SortGroupBy:
		return groupSchema(props.Cols, len(op.Aggs))
	case *relopt.HashGroupBy:
		return groupSchema(props.Cols, len(op.Aggs))
	}
	return NewSchema(props.Cols)
}

func groupSchema(cols []rel.ColID, aggs int) *Schema {
	all := append([]rel.ColID(nil), cols...)
	for i := 0; i < aggs; i++ {
		all = append(all, rel.InvalidCol)
	}
	return NewSchema(all)
}

// build constructs and configures the iterator for one plan node.
func (b *builder) build(plan *core.Plan, part int) (Iterator, *Schema, error) {
	it, s, err := b.buildNode(plan, part)
	if err != nil {
		return nil, nil, err
	}
	if b.opts.BatchSize > 0 {
		if bs, ok := it.(batchSized); ok {
			bs.SetBatchSize(b.opts.BatchSize)
		}
	}
	if f, ok := it.(*Filter); ok && b.opts.NoFusion {
		f.SetFusion(false)
	}
	if b.ctx != nil {
		switch scan := it.(type) {
		case *TableScan:
			scan.SetContext(b.ctx)
		case *ColScan:
			scan.SetContext(b.ctx)
		}
	}
	return it, s, nil
}

// colCapable reports whether a plan node exposes the columnar batch
// protocol without a per-batch transpose: scans over tables with a
// column-major projection, filter/project chains above them, and hash
// joins with at least one such side (whose output vectors are produced
// by gathers either way). It is the construction rule: the builder
// creates the columnar variant of a node exactly when its relevant
// inputs are column-capable, so transposing adapters only ever appear
// where a row-structured operator (sort, merge, set, exchange, spool)
// genuinely sits below a columnar one. Under NoFusion nothing is
// column-capable, which leaves the row kernels.
func (b *builder) colCapable(plan *core.Plan) bool {
	switch op := plan.Op.(type) {
	case *relopt.FileScan:
		t := b.db.Table(op.Tab.Name)
		return !b.opts.NoFusion && t != nil && t.cols != nil
	case *relopt.Filter, *relopt.ProjectOp:
		return b.colCapable(plan.Inputs[0])
	case *relopt.HashJoin:
		return b.colCapable(plan.Inputs[0]) || b.colCapable(plan.Inputs[1])
	}
	return false
}

// buildNode constructs the iterator for one plan node. part is the
// partition index being instantiated, or -1 for serial execution.
func (b *builder) buildNode(plan *core.Plan, part int) (Iterator, *Schema, error) {
	schema := schemaFor(plan)
	switch op := plan.Op.(type) {
	case *relopt.FileScan:
		t := b.db.Table(op.Tab.Name)
		if t == nil {
			return nil, nil, fmt.Errorf("exec: table %q not loaded", op.Tab.Name)
		}
		if b.colCapable(plan) {
			scan := NewColScan(t)
			if b.stripes > 1 {
				scan.SetStripe(b.stripe, b.stripes)
			}
			return scan, t.Schema, nil
		}
		scan := NewTableScan(t)
		if b.stripes > 1 {
			scan.SetStripe(b.stripe, b.stripes)
		}
		return scan, t.Schema, nil

	case *relopt.Filter:
		// Stacked filters (sqlish lowers a two-sided range to two) fold
		// into one operator, conjuncts in evaluation order, so the fused
		// scan-filter and the zero-copy header gather see the whole
		// predicate.
		child, conj := plan.Inputs[0], op.Preds
		for {
			inner, ok := child.Op.(*relopt.Filter)
			if !ok {
				break
			}
			conj = append(append([]rel.Pred(nil), inner.Preds...), conj...)
			child = child.Inputs[0]
		}
		columnar := b.colCapable(child)
		in, ins, err := b.build(child, part)
		if err != nil {
			return nil, nil, err
		}
		preds, err := b.bind(conj)
		if err != nil {
			return nil, nil, err
		}
		if columnar {
			return NewColFilter(in, ins, preds), ins, nil
		}
		return NewFilter(in, ins, preds), ins, nil

	case *relopt.ProjectOp:
		columnar := b.colCapable(plan.Inputs[0])
		in, ins, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		if columnar {
			return NewColProject(in, ins, op.Cols), schema, nil
		}
		return NewProject(in, ins, op.Cols), schema, nil

	case *relopt.Sort:
		in, ins, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		return NewSort(in, ins, op.Order), ins, nil

	case *relopt.MergeJoin:
		return b.buildJoin(plan, part, op.LeftCol, op.RightCol, op.Proj, true)

	case *relopt.HashJoin:
		return b.buildJoin(plan, part, op.LeftCol, op.RightCol, op.Proj, false)

	case *relopt.NLJoin:
		l, ls, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := b.build(plan.Inputs[1], part)
		if err != nil {
			return nil, nil, err
		}
		return NewNLJoin(l, r, ls, rs, ls.Pos(op.LeftCol), rs.Pos(op.RightCol)), joined(ls, rs), nil

	case *relopt.MergeIntersect:
		l, ls, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part)
		if err != nil {
			return nil, nil, err
		}
		order := make([]int, len(op.Order))
		for i, oc := range op.Order {
			order[i] = ls.Pos(oc.Col)
		}
		return NewMergeIntersect(l, r, order), ls, nil

	case *relopt.MergeUnion:
		l, ls, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part)
		if err != nil {
			return nil, nil, err
		}
		order := make([]int, len(op.Order))
		for i, oc := range op.Order {
			order[i] = ls.Pos(oc.Col)
		}
		return NewMergeUnion(l, r, order), ls, nil

	case *relopt.HashUnion:
		l, ls, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part)
		if err != nil {
			return nil, nil, err
		}
		u := NewHashUnion(l, r)
		u.SizeHint = rowsHint(plan)
		return u, ls, nil

	case *relopt.HashIntersect:
		l, ls, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part)
		if err != nil {
			return nil, nil, err
		}
		x := NewHashIntersect(l, r)
		x.SizeHint = rowsHint(plan.Inputs[0])
		return x, ls, nil

	case *relopt.SortGroupBy:
		columnar := b.colCapable(plan.Inputs[0])
		in, ins, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		if columnar {
			return NewColSortGroupBy(in, ins, op.GroupCols, op.Aggs), schema, nil
		}
		return NewSortGroupBy(in, ins, op.GroupCols, op.Aggs), schema, nil

	case *relopt.HashGroupBy:
		columnar := b.colCapable(plan.Inputs[0])
		in, ins, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		if columnar {
			g := NewColHashGroupBy(in, ins, op.GroupCols, op.Aggs)
			g.SizeHint = rowsHint(plan)
			return g, schema, nil
		}
		g := NewHashGroupBy(in, ins, op.GroupCols, op.Aggs)
		g.SizeHint = rowsHint(plan)
		return g, schema, nil

	case *relopt.ChoosePlan:
		// Dynamic plan: pick the alternative for the bound parameter,
		// then build only that subtree.
		if op.Pred.Param > len(b.params) {
			return nil, nil, fmt.Errorf("exec: choose-plan needs parameter $%d, %d bound", op.Pred.Param, len(b.params))
		}
		idx := op.ChooseAlternative(b.params[op.Pred.Param-1])
		return b.build(plan.Inputs[idx], part)

	case *relopt.Materialize:
		in, ins, err := b.build(plan.Inputs[0], part)
		if err != nil {
			return nil, nil, err
		}
		return NewMaterialize(b.spools(), int(op.ID), in, ins), ins, nil

	case *relopt.Reuse:
		r, rs, err := NewReuse(b.spools(), int(op.ID))
		if err != nil {
			return nil, nil, err
		}
		return r, rs, nil

	case *relopt.Exchange:
		if part < 0 {
			return nil, nil, fmt.Errorf("exec: exchange outside a partitioned context")
		}
		e, ok := b.exch[plan]
		if !ok {
			var err error
			if e, err = b.buildExchange(plan, op); err != nil {
				return nil, nil, err
			}
			b.exch[plan] = e
		}
		return e.state.port(part), e.schema, nil
	}
	return nil, nil, fmt.Errorf("exec: no runtime for physical operator %T", plan.Op)
}

// buildExchange constructs an exchange node's shared state: its producer
// instances (striped over the base table when the input subplan is
// stripe-safe, a single serial instance otherwise) and routing queues.
func (b *builder) buildExchange(plan *core.Plan, op *relopt.Exchange) (exchEntry, error) {
	child := plan.Inputs[0]
	workers := 1
	if stripeSafe(child) {
		workers = b.opts.ExchangeWorkers
		if workers <= 0 {
			workers = op.Part.Degree
		}
		if workers < 1 {
			workers = 1
		}
	}
	producers := make([]Iterator, workers)
	var ins *Schema
	for p := 0; p < workers; p++ {
		b.stripe, b.stripes = p, workers
		it, s, err := b.build(child, -1)
		b.stripe, b.stripes = 0, 0
		if err != nil {
			return exchEntry{}, err
		}
		producers[p], ins = it, s
	}
	// Multi-producer exchanges over a sorted input merge
	// order-preservingly per partition.
	var keys []sortKey
	if workers > 1 {
		keys = sortKeysFor(child, ins)
	}
	st := newExchangeState(b.ctx, op.Part.Degree, ins.Pos(op.Part.Col), b.opts.BatchSize, keys, producers)
	return exchEntry{state: st, schema: ins}, nil
}

// buildJoin assembles merge- or hash-join with the optional fused
// projection resolved to concatenated-row positions.
func (b *builder) buildJoin(plan *core.Plan, part int, lcol, rcol rel.ColID, projCols []rel.ColID, merge bool) (Iterator, *Schema, error) {
	l, ls, err := b.build(plan.Inputs[0], part)
	if err != nil {
		return nil, nil, err
	}
	r, rs, err := b.build(plan.Inputs[1], part)
	if err != nil {
		return nil, nil, err
	}
	out := joined(ls, rs)
	var proj []int
	if projCols != nil {
		proj = make([]int, len(projCols))
		for i, c := range projCols {
			proj[i] = out.Pos(c)
		}
		out = NewSchema(projCols)
	}
	lp, rp := ls.Pos(lcol), rs.Pos(rcol)
	if merge {
		return NewMergeJoin(l, r, ls, rs, lp, rp, proj), out, nil
	}
	if b.colCapable(plan) {
		cj := NewColHashJoin(l, r, ls, rs, lp, rp, proj)
		cj.BuildHint = rowsHint(plan.Inputs[0])
		cj.KeyHint = distinctHint(plan.Inputs[0], lcol)
		return cj, out, nil
	}
	hj := NewHashJoin(l, r, ls, rs, lp, rp, proj)
	hj.BuildHint = rowsHint(plan.Inputs[0])
	hj.KeyHint = distinctHint(plan.Inputs[0], lcol)
	return hj, out, nil
}

func joined(l, r *Schema) *Schema {
	return NewSchema(append(append([]rel.ColID(nil), l.Cols...), r.Cols...))
}
