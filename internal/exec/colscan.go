package exec

import (
	"context"

	"repro/internal/rel"
)

// ColScan reads a stored relation's column-major slab front to back,
// one columnar batch per call. The returned batches are zero-copy
// windows of the table's column vectors. Its row-protocol side
// (NextBatch) serves the stored rows themselves, so row consumers above
// a ColScan pay nothing for the columnar capability below them.
type ColScan struct {
	// Tab is the relation scanned.
	Tab *Table

	size    int
	ctx     context.Context
	stripe  int
	stripes int
	lo, hi  int
	next    int
	view    ColBatch
	out     Batch
}

// NewColScan creates a columnar scan over a table.
func NewColScan(t *Table) *ColScan {
	return &ColScan{Tab: t, size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (s *ColScan) SetBatchSize(n int) { s.size = sizeOrDefault(n) }

// SetContext makes the scan fail with the context's error once it is
// canceled; checked once per batch.
func (s *ColScan) SetContext(ctx context.Context) { s.ctx = ctx }

// SetStripe restricts the scan to stripe i of n contiguous equal-width
// stripes of the table; the n producer instances of a parallel exchange
// each scan one stripe so together they cover the table exactly once.
func (s *ColScan) SetStripe(i, n int) { s.stripe, s.stripes = i, n }

// Open resets the scan to the first row of its stripe.
func (s *ColScan) Open() error {
	total := s.Tab.Len()
	s.lo, s.hi = 0, total
	if s.stripes > 1 {
		s.lo = s.stripe * total / s.stripes
		s.hi = (s.stripe + 1) * total / s.stripes
	}
	s.next = s.lo
	return nil
}

// NextColBatch returns the next columnar batch as zero-copy column
// windows.
func (s *ColScan) NextColBatch() (*ColBatch, bool, error) {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if s.next >= s.hi {
		return nil, false, nil
	}
	end := s.next + s.size
	if end > s.hi {
		end = s.hi
	}
	if s.view.Cols == nil {
		s.view.Cols = colScratch.get(len(s.Tab.cols))
	}
	s.view.Cols = s.view.Cols[:0]
	for _, col := range s.Tab.cols {
		s.view.Cols = append(s.view.Cols, col[s.next:end:end])
	}
	s.view.Sel, s.view.N = nil, end-s.next
	s.next = end
	return &s.view, true, nil
}

// NextBatch returns the next batch of stored rows, zero-copy.
func (s *ColScan) NextBatch() (*Batch, bool, error) {
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

// Close gives the column-window vector and the batch's headers back.
func (s *ColScan) Close() error {
	colScratch.put(s.view.Cols)
	s.view.Cols = nil
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

// ColFilter drops rows failing any conjunct, columnar-style: instead of
// copying surviving rows it passes the input vectors through untouched
// and narrows the selection vector. The compiled conjuncts run
// column-at-a-time — one specialized compare loop per comparison
// operator whose inner body is a single compare plus a branchless
// conditional increment (the survivor index is stored unconditionally;
// only the write cursor advances conditionally), so 50%-selective
// predicates cost no branch mispredictions. Over a ColScan input this
// is scan-filter fusion in its strongest form: the conjuncts evaluate
// directly over the stored column windows and rejected rows are never
// materialized anywhere.
type ColFilter struct {
	// In is the input stream.
	In Iterator

	preds  []compiledPred
	in     ColBatchIterator
	scan   *ColScan // non-nil: input is a columnar scan (fusion)
	size   int
	selbuf []int32
	view   ColBatch
	out    Batch
}

// NewColFilter compiles the conjuncts against the input schema.
func NewColFilter(in Iterator, schema *Schema, preds []rel.Pred) *ColFilter {
	f := &ColFilter{In: in, in: asCols(in), size: DefaultBatchSize}
	for _, p := range preds {
		f.preds = append(f.preds, compilePred(p, schema))
	}
	if scan, ok := in.(*ColScan); ok {
		f.scan = scan
	}
	return f
}

// SetBatchSize sets the rows per batch.
func (f *ColFilter) SetBatchSize(n int) { f.size = sizeOrDefault(n) }

// Open opens the input.
func (f *ColFilter) Open() error {
	return f.In.Open()
}

// NextColBatch returns the input's next batch narrowed to the rows
// satisfying every conjunct: the column vectors are shared with the
// input batch, only the selection vector is owned by the filter.
func (f *ColFilter) NextColBatch() (*ColBatch, bool, error) {
	for {
		cb, ok, err := f.in.NextColBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		f.selbuf = growScratch(&int32Scratch, f.selbuf, cb.N)
		sel := f.selbuf
		n := 0
		for i, p := range f.preds {
			switch {
			case i == 0 && cb.Sel == nil:
				n = selectDense(p, cb.Cols, cb.N, sel)
			case i == 0:
				n = refineSel(p, cb.Cols, cb.Sel, sel)
			default:
				// In-place refinement: the write cursor never passes the
				// read cursor.
				n = refineSel(p, cb.Cols, sel[:n], sel)
			}
			if n == 0 {
				break
			}
		}
		if n == 0 {
			continue
		}
		f.view.Cols = cb.Cols
		f.view.Sel = sel[:n]
		f.view.N = cb.N
		return &f.view, true, nil
	}
}

// NextBatch serves the surviving rows on the row protocol. Over a
// columnar scan the survivors are the stored rows themselves, so the
// batch gathers zero-copy row headers through the selection vector, and
// a row consumer above a scan-filter pays no value copy. Other inputs
// materialize through the arena.
func (f *ColFilter) NextBatch() (*Batch, bool, error) {
	cb, ok, err := f.NextColBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	f.out.reset(f.size)
	if f.scan != nil {
		tab, base := f.scan.Tab, f.scan.next-cb.N
		for _, s := range cb.Sel {
			f.out.add(tab.Row(base + int(s)))
		}
		return &f.out, true, nil
	}
	materializeInto(&f.out, cb, len(cb.Cols)*f.size)
	return &f.out, true, nil
}

// Close gives the selection vector and the batch's headers back and
// closes the input through its columnar adapter.
func (f *ColFilter) Close() error {
	int32Scratch.put(f.selbuf)
	f.selbuf = nil
	f.out.release()
	return f.in.Close()
}

// selectDense fills sel with the indexes of the rows in [0,n) satisfying
// p, returning the survivor count. One loop per comparison operator
// keeps the inner body branch-free: the candidate index is always
// stored, the write cursor advances only on a match.
func selectDense(p compiledPred, cols [][]int64, n int, sel []int32) int {
	k := 0
	if p.otherPos < 0 {
		col := cols[p.pos][:n]
		val := p.val
		switch p.op {
		case rel.CmpEQ:
			for i, v := range col {
				sel[k] = int32(i)
				if v == val {
					k++
				}
			}
		case rel.CmpNE:
			for i, v := range col {
				sel[k] = int32(i)
				if v != val {
					k++
				}
			}
		case rel.CmpLT:
			for i, v := range col {
				sel[k] = int32(i)
				if v < val {
					k++
				}
			}
		case rel.CmpLE:
			for i, v := range col {
				sel[k] = int32(i)
				if v <= val {
					k++
				}
			}
		case rel.CmpGT:
			for i, v := range col {
				sel[k] = int32(i)
				if v > val {
					k++
				}
			}
		case rel.CmpGE:
			for i, v := range col {
				sel[k] = int32(i)
				if v >= val {
					k++
				}
			}
		}
		return k
	}
	a := cols[p.pos][:n]
	b := cols[p.otherPos][:n]
	switch p.op {
	case rel.CmpEQ:
		for i, v := range a {
			sel[k] = int32(i)
			if v == b[i] {
				k++
			}
		}
	case rel.CmpNE:
		for i, v := range a {
			sel[k] = int32(i)
			if v != b[i] {
				k++
			}
		}
	case rel.CmpLT:
		for i, v := range a {
			sel[k] = int32(i)
			if v < b[i] {
				k++
			}
		}
	case rel.CmpLE:
		for i, v := range a {
			sel[k] = int32(i)
			if v <= b[i] {
				k++
			}
		}
	case rel.CmpGT:
		for i, v := range a {
			sel[k] = int32(i)
			if v > b[i] {
				k++
			}
		}
	case rel.CmpGE:
		for i, v := range a {
			sel[k] = int32(i)
			if v >= b[i] {
				k++
			}
		}
	}
	return k
}

// refineSel narrows an existing selection: dst receives the members of
// src whose row satisfies p. src and dst may alias (in-place
// refinement), because the write cursor never passes the read cursor.
func refineSel(p compiledPred, cols [][]int64, src, dst []int32) int {
	k := 0
	if p.otherPos < 0 {
		col := cols[p.pos]
		val := p.val
		switch p.op {
		case rel.CmpEQ:
			for _, s := range src {
				dst[k] = s
				if col[s] == val {
					k++
				}
			}
		case rel.CmpNE:
			for _, s := range src {
				dst[k] = s
				if col[s] != val {
					k++
				}
			}
		case rel.CmpLT:
			for _, s := range src {
				dst[k] = s
				if col[s] < val {
					k++
				}
			}
		case rel.CmpLE:
			for _, s := range src {
				dst[k] = s
				if col[s] <= val {
					k++
				}
			}
		case rel.CmpGT:
			for _, s := range src {
				dst[k] = s
				if col[s] > val {
					k++
				}
			}
		case rel.CmpGE:
			for _, s := range src {
				dst[k] = s
				if col[s] >= val {
					k++
				}
			}
		}
		return k
	}
	a := cols[p.pos]
	b := cols[p.otherPos]
	switch p.op {
	case rel.CmpEQ:
		for _, s := range src {
			dst[k] = s
			if a[s] == b[s] {
				k++
			}
		}
	case rel.CmpNE:
		for _, s := range src {
			dst[k] = s
			if a[s] != b[s] {
				k++
			}
		}
	case rel.CmpLT:
		for _, s := range src {
			dst[k] = s
			if a[s] < b[s] {
				k++
			}
		}
	case rel.CmpLE:
		for _, s := range src {
			dst[k] = s
			if a[s] <= b[s] {
				k++
			}
		}
	case rel.CmpGT:
		for _, s := range src {
			dst[k] = s
			if a[s] > b[s] {
				k++
			}
		}
	case rel.CmpGE:
		for _, s := range src {
			dst[k] = s
			if a[s] >= b[s] {
				k++
			}
		}
	}
	return k
}

// ColProject narrows a columnar stream to a column subset. Columns are
// shared with the input batch (a projection is a vector pick, not a
// copy); the selection vector passes through untouched.
type ColProject struct {
	// In is the input stream.
	In Iterator

	idx  []int
	in   ColBatchIterator
	size int
	view ColBatch
	out  Batch
}

// NewColProject resolves the output columns against the input schema.
func NewColProject(in Iterator, schema *Schema, cols []rel.ColID) *ColProject {
	p := &ColProject{In: in, in: asCols(in), size: DefaultBatchSize, idx: make([]int, len(cols))}
	for i, c := range cols {
		p.idx[i] = schema.Pos(c)
	}
	return p
}

// SetBatchSize sets the rows per batch.
func (p *ColProject) SetBatchSize(n int) { p.size = sizeOrDefault(n) }

// Open opens the input.
func (p *ColProject) Open() error {
	return p.In.Open()
}

// NextColBatch returns the next batch narrowed to the projected columns.
func (p *ColProject) NextColBatch() (*ColBatch, bool, error) {
	cb, ok, err := p.in.NextColBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if p.view.Cols == nil {
		p.view.Cols = colScratch.get(len(p.idx))
	}
	p.view.Cols = p.view.Cols[:0]
	for _, j := range p.idx {
		p.view.Cols = append(p.view.Cols, cb.Cols[j])
	}
	p.view.Sel, p.view.N = cb.Sel, cb.N
	return &p.view, true, nil
}

// NextBatch materializes the next projected rows onto the row protocol.
func (p *ColProject) NextBatch() (*Batch, bool, error) {
	cb, ok, err := p.NextColBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	p.out.reset(p.size)
	materializeInto(&p.out, cb, len(cb.Cols)*p.size)
	return &p.out, true, nil
}

// Close gives the column-window vector and the batch's headers back and
// closes the input through its columnar adapter.
func (p *ColProject) Close() error {
	colScratch.put(p.view.Cols)
	p.view.Cols = nil
	p.out.release()
	return p.in.Close()
}
