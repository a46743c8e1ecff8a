package exec

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/relopt"
)

// Options configures plan execution.
type Options struct {
	// BatchSize is the rows moved per operator call; zero means
	// DefaultBatchSize.
	BatchSize int
	// ExchangeWorkers is the number of producer goroutines per exchange
	// operator; zero means the exchange's partitioning degree. Multiple
	// producers require a stripe-safe input subplan (scan, filter,
	// project, sort chains); other inputs fall back to one producer.
	ExchangeWorkers int
	// Columnar no longer selects anything: scans, filters, projections,
	// hash joins and groupings always run their columnar kernels.
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

// BuildPlanOpts translates an optimizer plan into an iterator tree over
// the database. Partitioned plans (delivered partitioning from the
// parallel model) are instantiated once per partition and merged by a
// Gather operator running the partitions in parallel goroutines. params
// supplies the runtime values of parameterized predicates (1-based
// indexes), and choose-plan nodes select their alternative using the
// bound values before any iterator is constructed. A nil ctx means no
// cancellation; opts tunes batch size, exchange parallelism and the
// spool store.
func BuildPlanOpts(ctx context.Context, db *DB, plan *core.Plan, params []int64, opts Options) (Iterator, *Schema, error) {
	b := &builder{db: db, ctx: ctx, opts: opts, exch: make(map[*core.Plan]exchEntry), params: params}
	if part := deliveredPart(plan); part.Kind == relopt.PartHash {
		parts := make([]Iterator, part.Degree)
		var schema *Schema
		for i := 0; i < part.Degree; i++ {
			it, s, err := b.build(plan, i, nil)
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
	return b.build(plan, -1, nil)
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
// Debug builds then verify the stored tables and check the result
// against the plan's delivered sort order.
func RunOpts(ctx context.Context, db *DB, plan *core.Plan, params []int64, opts Options) ([]Row, *Schema, error) {
	it, schema, err := BuildPlanOpts(ctx, db, plan, params, opts)
	if err != nil {
		db.countRun(0, err)
		return nil, nil, err
	}
	rows, err := Collect(it)
	db.countRun(len(rows), err)
	if debugBuild {
		db.verifyTables()
		keys := sortKeysFor(plan, schema)
		for i := 1; i < len(rows) && keys != nil; i++ {
			checkOrder("result", rows[i-1], rows[i], keys)
		}
	}
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

// colSet is the set of columns a plan node's consumer reads. The
// builder carries it down its recursion so that every join materializes
// only those columns (projection pushdown at build, DESIGN §4i). The nil
// set stands for every column: the root's, and what set operations,
// exchanges, spools and nested-loop joins read of their inputs, whose
// rows are compared whole, routed or merged by position, or read by
// another plan of the batch.
type colSet []rel.ColID

// only is the set of exactly cols, sharing their storage (no set is
// modified in place); it is never every column, even when cols is empty.
func only(cols []rel.ColID) colSet {
	if cols == nil {
		return colSet{}
	}
	return cols
}

// has reports whether the set holds c.
func (s colSet) has(c rel.ColID) bool {
	if s == nil {
		return true
	}
	for _, x := range s {
		if x == c {
			return true
		}
	}
	return false
}

// with returns the set plus cols, copying s only when it grows; every
// column stays every column.
func (s colSet) with(cols ...rel.ColID) colSet {
	out := s
	for _, c := range cols {
		if c == rel.InvalidCol || out.has(c) {
			continue
		}
		if len(out) == len(s) {
			out = append(make(colSet, 0, len(s)+len(cols)), s...)
		}
		out = append(out, c)
	}
	return out
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

// build constructs and configures the iterator for one plan node; need
// is what the node's consumer reads of it.
func (b *builder) build(plan *core.Plan, part int, need colSet) (Iterator, *Schema, error) {
	it, s, err := b.buildNode(plan, part, need)
	if err != nil {
		return nil, nil, err
	}
	if b.opts.BatchSize > 0 {
		if bs, ok := it.(batchSized); ok {
			bs.SetBatchSize(b.opts.BatchSize)
		}
	}
	if scan, ok := it.(*ColScan); ok && b.ctx != nil {
		scan.SetContext(b.ctx)
	}
	return it, s, nil
}

// buildNode constructs the iterator for one plan node. part is the
// partition index being instantiated, or -1 for serial execution; need
// is what the node's consumer reads of it.
func (b *builder) buildNode(plan *core.Plan, part int, need colSet) (Iterator, *Schema, error) {
	schema := schemaFor(plan)
	switch op := plan.Op.(type) {
	case *relopt.FileScan:
		t := b.db.Table(op.Tab.Name)
		if t == nil {
			return nil, nil, fmt.Errorf("exec: table %q not loaded", op.Tab.Name)
		}
		scan := NewColScan(t)
		if b.stripes > 1 {
			scan.SetStripe(b.stripe, b.stripes)
		}
		return scan, t.Schema, nil

	case *relopt.Filter:
		// Stacked filters (sqlish lowers a two-sided range to two) fold
		// into one operator, conjuncts in evaluation order, so a filter
		// over a scan selects on the stored vectors in one pass and its
		// row consumers get the stored rows' headers.
		child, conj := plan.Inputs[0], op.Preds
		for {
			inner, ok := child.Op.(*relopt.Filter)
			if !ok {
				break
			}
			conj = append(append([]rel.Pred(nil), inner.Preds...), conj...)
			child = child.Inputs[0]
		}
		for _, p := range conj {
			need = need.with(p.Col, p.OtherCol)
		}
		in, ins, err := b.build(child, part, need)
		if err != nil {
			return nil, nil, err
		}
		preds, err := b.bind(conj)
		if err != nil {
			return nil, nil, err
		}
		return NewColFilter(in, ins, preds), ins, nil

	case *relopt.ProjectOp:
		in, ins, err := b.build(plan.Inputs[0], part, only(op.Cols))
		if err != nil {
			return nil, nil, err
		}
		return NewColProject(in, ins, op.Cols), schema, nil

	case *relopt.Sort:
		for _, oc := range op.Order {
			need = need.with(oc.Col)
		}
		in, ins, err := b.build(plan.Inputs[0], part, need)
		if err != nil {
			return nil, nil, err
		}
		return NewSort(in, ins, op.Order), ins, nil

	case *relopt.MergeJoin:
		return b.buildJoin(plan, part, need, op.LeftCol, op.RightCol, op.Proj, true)

	case *relopt.HashJoin:
		return b.buildJoin(plan, part, need, op.LeftCol, op.RightCol, op.Proj, false)

	case *relopt.NLJoin:
		l, ls, err := b.build(plan.Inputs[0], part, nil)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := b.build(plan.Inputs[1], part, nil)
		if err != nil {
			return nil, nil, err
		}
		return NewNLJoin(l, r, ls, rs, ls.Pos(op.LeftCol), rs.Pos(op.RightCol)), joined(ls, rs), nil

	case *relopt.MergeIntersect:
		l, ls, err := b.build(plan.Inputs[0], part, nil)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part, nil)
		if err != nil {
			return nil, nil, err
		}
		order := make([]int, len(op.Order))
		for i, oc := range op.Order {
			order[i] = ls.Pos(oc.Col)
		}
		return NewMergeIntersect(l, r, order), ls, nil

	case *relopt.MergeUnion:
		l, ls, err := b.build(plan.Inputs[0], part, nil)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part, nil)
		if err != nil {
			return nil, nil, err
		}
		order := make([]int, len(op.Order))
		for i, oc := range op.Order {
			order[i] = ls.Pos(oc.Col)
		}
		return NewMergeUnion(l, r, order), ls, nil

	case *relopt.HashUnion:
		l, ls, err := b.build(plan.Inputs[0], part, nil)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part, nil)
		if err != nil {
			return nil, nil, err
		}
		u := NewHashUnion(l, r)
		u.SizeHint = rowsHint(plan)
		return u, ls, nil

	case *relopt.HashIntersect:
		l, ls, err := b.build(plan.Inputs[0], part, nil)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.build(plan.Inputs[1], part, nil)
		if err != nil {
			return nil, nil, err
		}
		x := NewHashIntersect(l, r)
		x.SizeHint = rowsHint(plan.Inputs[0])
		return x, ls, nil

	case *relopt.SortGroupBy:
		in, ins, err := b.build(plan.Inputs[0], part, groupReads(op.GroupCols, op.Aggs))
		if err != nil {
			return nil, nil, err
		}
		return NewColSortGroupBy(in, ins, op.GroupCols, op.Aggs), schema, nil

	case *relopt.HashGroupBy:
		in, ins, err := b.build(plan.Inputs[0], part, groupReads(op.GroupCols, op.Aggs))
		if err != nil {
			return nil, nil, err
		}
		g := NewColHashGroupBy(in, ins, op.GroupCols, op.Aggs)
		g.SizeHint = rowsHint(plan)
		return g, schema, nil

	case *relopt.ChoosePlan:
		// Dynamic plan: pick the alternative for the bound parameter,
		// then build only that subtree.
		if op.Pred.Param > len(b.params) {
			return nil, nil, fmt.Errorf("exec: choose-plan needs parameter $%d, %d bound", op.Pred.Param, len(b.params))
		}
		idx := op.ChooseAlternative(b.params[op.Pred.Param-1])
		return b.build(plan.Inputs[idx], part, need)

	case *relopt.Materialize:
		in, ins, err := b.build(plan.Inputs[0], part, nil)
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
		it, s, err := b.build(child, -1, nil)
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

// buildJoin assembles merge- or hash-join with a projection resolved to
// concatenated-row positions: the fused one if the plan carries it, else
// the columns need holds whenever that drops at least one. Both inputs
// are asked for what the join emits plus its keys. A joined schema that
// repeats a column ID resolves that column to its last occurrence, so a
// self-join asks its inputs for every column and prunes nothing.
func (b *builder) buildJoin(plan *core.Plan, part int, need colSet, lcol, rcol rel.ColID, projCols []rel.ColID, merge bool) (Iterator, *Schema, error) {
	if projCols != nil {
		need = only(projCols)
	}
	in := need.with(lcol, rcol)
	if in != nil && repeatsCol(plan) {
		need, in = nil, nil
	}
	l, ls, err := b.build(plan.Inputs[0], part, in)
	if err != nil {
		return nil, nil, err
	}
	r, rs, err := b.build(plan.Inputs[1], part, in)
	if err != nil {
		return nil, nil, err
	}
	out := joined(ls, rs)
	if projCols == nil && need != nil {
		projCols = pruned(out, need)
	}
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
	hj := NewColHashJoin(l, r, ls, rs, lp, rp, proj)
	hj.BuildHint = rowsHint(plan.Inputs[0])
	hj.KeyHint = distinctHint(plan.Inputs[0], lcol)
	return hj, out, nil
}

func joined(l, r *Schema) *Schema {
	return NewSchema(append(append([]rel.ColID(nil), l.Cols...), r.Cols...))
}

// pruned returns the columns of s that need holds, in s's order; nil
// when that would drop none. A consumer that reads no column (a global
// COUNT(*)) gets s's first: a row must keep a column.
func pruned(s *Schema, need colSet) []rel.ColID {
	var keep []rel.ColID
	for _, c := range s.Cols {
		if need.has(c) {
			keep = append(keep, c)
		}
	}
	if len(keep) == 0 {
		keep = append(keep, s.Cols[0])
	}
	if len(keep) == len(s.Cols) {
		return nil
	}
	return keep
}

// repeatsCol reports whether a join's joined schema names some column
// ID twice.
func repeatsCol(plan *core.Plan) bool {
	l := plan.Inputs[0].LogProps.(*rel.Props).Cols
	r := plan.Inputs[1].LogProps.(*rel.Props).Cols
	for i, c := range l {
		if slices.Contains(l[i+1:], c) || slices.Contains(r, c) {
			return true
		}
	}
	for i, c := range r {
		if slices.Contains(r[i+1:], c) {
			return true
		}
	}
	return false
}

// groupReads is what a group-by reads of its input: the group columns
// and every aggregate argument.
func groupReads(groupCols []rel.ColID, aggs []rel.Agg) colSet {
	need := only(groupCols)
	for _, a := range aggs {
		if a.Fn != rel.AggCount {
			need = need.with(a.Col)
		}
	}
	return need
}
