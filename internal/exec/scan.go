package exec

import (
	"context"

	"repro/internal/rel"
)

// TableScan reads a stored relation front to back (filescan), one batch
// of rows per call. The returned rows are the stored rows themselves
// (Table.Row); only the batch's header vector is the scan's.
type TableScan struct {
	// Tab is the relation scanned.
	Tab *Table

	size    int
	ctx     context.Context
	stripe  int
	stripes int
	lo, hi  int
	next    int
	out     Batch
	ra      rowAdapter
}

// NewTableScan creates a scan over a table.
func NewTableScan(t *Table) *TableScan {
	return &TableScan{Tab: t, size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (s *TableScan) SetBatchSize(n int) { s.size = sizeOrDefault(n) }

// SetContext makes the scan fail with the context's error once it is
// canceled; checked once per batch.
func (s *TableScan) SetContext(ctx context.Context) { s.ctx = ctx }

// SetStripe restricts the scan to stripe i of n contiguous equal-width
// stripes of the table; the n producer instances of a parallel exchange
// each scan one stripe so together they cover the table exactly once.
func (s *TableScan) SetStripe(i, n int) { s.stripe, s.stripes = i, n }

// Open resets the scan to the first row of its stripe.
func (s *TableScan) Open() error {
	total := s.Tab.Len()
	s.lo, s.hi = 0, total
	if s.stripes > 1 {
		s.lo = s.stripe * total / s.stripes
		s.hi = (s.stripe + 1) * total / s.stripes
	}
	s.next = s.lo
	s.ra.reset()
	return nil
}

// NextBatch returns the next batch of stored rows, zero-copy.
func (s *TableScan) NextBatch() (*Batch, bool, error) {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if s.next >= s.hi {
		return nil, false, nil
	}
	end := min(s.next+s.size, s.hi)
	s.out.reset(s.size)
	s.out.addStored(s.Tab, s.next, end)
	s.next = end
	return &s.out, true, nil
}

// Next returns the next stored row.
func (s *TableScan) Next() (Row, bool, error) { return s.ra.next(s) }

// Close gives the batch's headers back.
func (s *TableScan) Close() error {
	s.out.release()
	return nil
}

// compiledPred is a predicate with schema positions resolved.
type compiledPred struct {
	op       rel.CmpOp
	pos      int
	otherPos int // -1 for constant comparisons
	val      int64
}

func compilePred(p rel.Pred, s *Schema) compiledPred {
	c := compiledPred{op: p.Op, pos: s.Pos(p.Col), otherPos: -1, val: p.Val}
	if p.IsColCol() {
		c.otherPos = s.Pos(p.OtherCol)
	}
	return c
}

func (c compiledPred) eval(r Row) bool {
	rhs := c.val
	if c.otherPos >= 0 {
		rhs = r[c.otherPos]
	}
	return c.op.Eval(r[c.pos], rhs)
}

func evalPreds(preds []compiledPred, r Row) bool {
	for _, p := range preds {
		if !p.eval(r) {
			return false
		}
	}
	return true
}

// Filter drops rows failing any conjunct (the filter algorithm). When
// its input is a TableScan, predicate evaluation is fused into the scan
// batch loop: the filter iterates the stored rows directly, so rejected
// rows never cross an operator boundary.
type Filter struct {
	// In is the input stream.
	In Iterator

	preds []compiledPred
	in    BatchIterator
	size  int
	fused *TableScan // non-nil: evaluate predicates inside the scan loop
	fi    int        // fused scan position
	out   Batch
	ra    rowAdapter
}

// NewFilter compiles the conjuncts against the input schema.
func NewFilter(in Iterator, schema *Schema, preds []rel.Pred) *Filter {
	f := &Filter{In: in, in: asBatch(in), size: DefaultBatchSize}
	for _, p := range preds {
		f.preds = append(f.preds, compilePred(p, schema))
	}
	if scan, ok := in.(*TableScan); ok {
		f.fused = scan
	}
	return f
}

// SetBatchSize sets the rows per batch.
func (f *Filter) SetBatchSize(n int) { f.size = sizeOrDefault(n) }

// SetFusion enables or disables scan-filter fusion (enabled by default
// when the input is a TableScan). The row-engine configuration disables
// it so every operator boundary stays a row transfer.
func (f *Filter) SetFusion(on bool) {
	f.fused = nil
	if scan, ok := f.In.(*TableScan); ok && on {
		f.fused = scan
	}
}

// Open opens the input.
func (f *Filter) Open() error {
	f.ra.reset()
	if err := f.In.Open(); err != nil {
		return err
	}
	if f.fused != nil {
		f.fi = f.fused.lo
	}
	return nil
}

// NextBatch returns the next batch of rows satisfying every conjunct.
func (f *Filter) NextBatch() (*Batch, bool, error) {
	f.out.reset(f.size)
	if f.fused != nil {
		return f.nextFused()
	}
	for len(f.out.Rows) < f.size {
		b, ok, err := f.in.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		for _, row := range b.Rows {
			if evalPreds(f.preds, row) {
				f.out.add(row)
			}
		}
	}
	if len(f.out.Rows) == 0 {
		return nil, false, nil
	}
	return &f.out, true, nil
}

// nextFused evaluates the conjuncts directly over the stored rows.
func (f *Filter) nextFused() (*Batch, bool, error) {
	if f.fused.ctx != nil {
		if err := f.fused.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	tab := f.fused.Tab
	if len(f.preds) == 1 && f.preds[0].otherPos < 0 {
		// Fusion admits one more specialization: the dominant
		// single-conjunct column-vs-constant filter runs as a direct
		// compare loop, no conjunct iteration per row.
		p := f.preds[0]
		for f.fi < f.fused.hi && len(f.out.Rows) < f.size {
			row := tab.Row(f.fi)
			f.fi++
			if p.op.Eval(row[p.pos], p.val) {
				f.out.add(row)
			}
		}
	} else {
		for f.fi < f.fused.hi && len(f.out.Rows) < f.size {
			row := tab.Row(f.fi)
			f.fi++
			if evalPreds(f.preds, row) {
				f.out.add(row)
			}
		}
	}
	if len(f.out.Rows) == 0 {
		return nil, false, nil
	}
	return &f.out, true, nil
}

// Next returns the next row satisfying every conjunct.
func (f *Filter) Next() (Row, bool, error) { return f.ra.next(f) }

// Close gives the batch's headers back and closes the input.
func (f *Filter) Close() error {
	f.out.release()
	return f.In.Close()
}

// Project narrows rows to a column subset.
type Project struct {
	// In is the input stream.
	In Iterator

	idx  []int
	in   BatchIterator
	size int
	out  Batch
	ra   rowAdapter
}

// NewProject resolves the output columns against the input schema.
func NewProject(in Iterator, schema *Schema, cols []rel.ColID) *Project {
	p := &Project{In: in, in: asBatch(in), size: DefaultBatchSize, idx: make([]int, len(cols))}
	for i, c := range cols {
		p.idx[i] = schema.Pos(c)
	}
	return p
}

// SetBatchSize sets the rows per batch.
func (p *Project) SetBatchSize(n int) { p.size = sizeOrDefault(n) }

// Open opens the input.
func (p *Project) Open() error {
	p.ra.reset()
	return p.In.Open()
}

// NextBatch returns the next batch of projected rows.
func (p *Project) NextBatch() (*Batch, bool, error) {
	b, ok, err := p.in.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	p.out.reset(p.size)
	w := len(p.idx)
	chunk := w * p.size
	for _, row := range b.Rows {
		out := p.out.alloc(w, chunk)
		for i, j := range p.idx {
			out[i] = row[j]
		}
	}
	return &p.out, true, nil
}

// Next returns the next projected row.
func (p *Project) Next() (Row, bool, error) { return p.ra.next(p) }

// Close gives the batch's headers back and closes the input.
func (p *Project) Close() error {
	p.out.release()
	return p.In.Close()
}
