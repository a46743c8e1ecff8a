package exec

// The columnar batch protocol. The row batches of batch.go amortize
// iterator dispatch, but a kernel over them walks []Row slices of
// pointers: every predicate, aggregate, and join-probe loop would be
// bound by header loads rather than by the ALU. So scans, filters,
// projections, hash joins and groupings run on ColBatch instead: one dense []int64 vector per column plus an optional
// []int32 selection vector, so filters mark survivors instead of copying
// rows and downstream kernels iterate typed slices the compiler can
// bounds-check-eliminate.
//
// Lifetime contract (the columnar analogue of the batch.go contract,
// with one sharpening): the *ColBatch returned by NextColBatch — its
// Cols vector set AND the vector contents — is valid only until the next
// NextColBatch or Close call on the same operator. Unlike row batches,
// whose row data is never reused, columnar vectors MAY be recycled
// views or scratch buffers; a consumer that needs values across batch
// boundaries must copy them out (see materializeInto). The Sel slice is
// likewise owned by the producer and recycled. Vectors produced as
// views of stored tables happen to stay valid forever, but no operator
// may rely on that.
//
// Adapter boundaries: every columnar operator is also an Iterator
// (NextBatch materializes the current columnar batch through
// materializeInto), so storage load, Exchange routing, sorts, sets,
// spooling, and Collect keep consuming rows unchanged. Conversely asCols
// promotes any row-batch operator to the columnar protocol through a
// transposing adapter, so columnar operators accept arbitrary inputs.

// ColBatch is one columnar unit of data flow: a set of equal-length
// column vectors and an optional selection vector naming the live rows.
type ColBatch struct {
	// Cols holds one vector per output column, each of length N.
	Cols [][]int64
	// Sel, when non-nil, lists the live row indexes in ascending order;
	// nil means all N rows are live. Kernels that consume a batch with a
	// selection vector gather through it.
	Sel []int32
	// N is the vector length (the live count only when Sel is nil).
	N int
}

// Len returns the number of live rows.
func (cb *ColBatch) Len() int {
	if cb.Sel != nil {
		return len(cb.Sel)
	}
	return cb.N
}

// ColBatchIterator is the columnar Volcano iterator interface: open
// once, pull columnar batches until ok is false, close. See the
// package-level lifetime contract above.
type ColBatchIterator interface {
	Iterator
	// NextColBatch returns the next columnar batch; ok is false at end
	// of stream. The returned batch and its vectors are valid until the
	// next call. Batches are never empty: Len() >= 1 when ok.
	NextColBatch() (cb *ColBatch, ok bool, err error)
}

// asCols promotes any Iterator to the columnar protocol: columnar
// operators are returned as themselves, row-producing iterators are
// wrapped in a transposing adapter. The adapter delegates Open and
// NextBatch to the wrapped iterator; its Close gives its vectors
// back and closes the wrapped iterator, so an operator that promotes an
// input closes it through what asCols returned.
func asCols(it Iterator) ColBatchIterator {
	if ci, ok := it.(ColBatchIterator); ok {
		return ci
	}
	return &rowCols{it: it}
}

// closeCols closes an input through the columnar adapter asCols made
// for it, or directly when none was made yet.
func closeCols(in ColBatchIterator, it Iterator) error {
	if in != nil {
		return in.Close()
	}
	return it.Close()
}

// rowCols adapts a row-batch producer into a columnar one by transposing
// each batch into vectors taken from the scratch pools.
type rowCols struct {
	it   Iterator
	vecs [][]int64
	view ColBatch
}

func (r *rowCols) Open() error { return r.it.Open() }

// Close gives the vectors back and closes the wrapped iterator.
func (r *rowCols) Close() error {
	for _, v := range r.vecs {
		int64Scratch.put(v)
	}
	colScratch.put(r.vecs)
	colScratch.put(r.view.Cols)
	r.vecs, r.view.Cols = nil, nil
	return r.it.Close()
}

func (r *rowCols) NextBatch() (*Batch, bool, error) { return r.it.NextBatch() }

func (r *rowCols) NextColBatch() (*ColBatch, bool, error) {
	b, ok, err := r.it.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	n := len(b.Rows)
	w := len(b.Rows[0])
	if r.vecs == nil {
		r.vecs = colScratch.get(w)[:w]
		r.view.Cols = colScratch.get(w)
	}
	r.view.Cols = r.view.Cols[:0]
	for j := range r.vecs {
		r.vecs[j] = growScratch(&int64Scratch, r.vecs[j], n)
		r.view.Cols = append(r.view.Cols, r.vecs[j])
	}
	for i, row := range b.Rows {
		for j, v := range row {
			r.vecs[j][i] = v
		}
	}
	r.view.Sel, r.view.N = nil, n
	return &r.view, true, nil
}

// materializeInto transposes a columnar batch into row storage appended
// to out — contiguous arena blocks plus cheap row headers — bridging a
// columnar operator's output back onto the row protocol. chunk sizes
// arena refills, as in Batch.alloc. The gather runs column-at-a-time
// with a strided write, so each source vector is swept sequentially.
func materializeInto(out *Batch, cb *ColBatch, chunk int) {
	w := len(cb.Cols)
	for lo, n := 0, cb.Len(); lo < n; {
		block := out.carve(n-lo, w, chunk)
		hi := lo + len(block)/w
		for j, col := range cb.Cols {
			k := j
			if cb.Sel == nil {
				for _, v := range col[lo:hi] {
					block[k] = v
					k += w
				}
			} else {
				for _, s := range cb.Sel[lo:hi] {
					block[k] = col[s]
					k += w
				}
			}
		}
		lo = hi
	}
}
