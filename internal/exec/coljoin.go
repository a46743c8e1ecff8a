package exec

// ColHashJoin is the columnar hash join: the left input is drained into
// column-major build vectors — or, when it serves stored rows, only
// indexed where it lies — and its key vector indexed once; the right
// input probes batch by batch with the whole probe-key vector looked up
// front (the independent lookups overlap their cache misses) and only
// its hits walked afterwards, and output batches are produced by
// per-column gather loops instead of per-row header-and-copy work.
type ColHashJoin struct {
	// Left and Right are the input streams; Left builds.
	Left, Right Iterator
	// BuildHint pre-sizes the build storage, as in HashJoin.
	BuildHint int
	// KeyHint estimates the distinct build keys, as in HashJoin.
	KeyHint int

	lpos, rpos     int
	proj           []int
	lwidth, rwidth int
	size           int

	// Build state: bcols holds the build rows column-major, head is the
	// key index (see joinTable), chain links build rows sharing a key.
	// When the build input serves stored rows (see storedSource) bcols
	// are the table's own column vectors and brows maps each build row
	// to its row there, so the build copies no value the table already
	// holds; otherwise bcols are scratch copies.
	right  ColBatchIterator
	stored bool
	bcols  [][]int64
	brows  []int32
	head   joinTable
	chain  []int32

	// Probe state. prow, phead are the current probe batch's hits
	// (joinTable.probeHits). A match pair (lidx[i], ridx[i]) names a build
	// row and a row of the current probe batch; output vectors gather
	// through them. An output batch never spans two probe batches: probe
	// vectors may be recycled by the producer, so pending matches are
	// flushed before pulling the next batch.
	pb          *ColBatch
	pi, pn      int
	prow, phead []int32
	hit         int32
	probeRow    int32
	lidx        []int32
	ridx        []int32
	vecs        [][]int64
	view        ColBatch
	out         Batch
	ra          rowAdapter
}

// NewColHashJoin resolves join columns (and an optional fused
// projection, indexing the concatenated left++right row) against the
// input schemas.
func NewColHashJoin(left, right Iterator, lschema, rschema *Schema, lcol, rcol int, proj []int) *ColHashJoin {
	return &ColHashJoin{
		Left: left, Right: right,
		lpos: lcol, rpos: rcol,
		proj:   proj,
		lwidth: lschema.Width(),
		rwidth: rschema.Width(),
		size:   DefaultBatchSize,
	}
}

// SetBatchSize sets the rows per batch.
func (h *ColHashJoin) SetBatchSize(n int) { h.size = sizeOrDefault(n) }

// outWidth returns the output row width.
func (h *ColHashJoin) outWidth() int {
	if h.proj != nil {
		return len(h.proj)
	}
	return h.lwidth + h.rwidth
}

// Open builds the columnar hash table from the left input.
func (h *ColHashJoin) Open() error {
	if err := h.Left.Open(); err != nil {
		return err
	}
	if err := h.Right.Open(); err != nil {
		return err
	}
	h.right = asCols(h.Right)
	h.pb, h.pi, h.pn, h.hit, h.probeRow = nil, 0, 0, -1, 0
	h.lidx = int32Scratch.get(h.size)[:h.size]
	h.ridx = int32Scratch.get(h.size)[:h.size]
	h.ra.reset()

	build := asCols(h.Left)
	scan := storedSource(h.Left)
	if h.stored = scan != nil; h.stored {
		h.bcols = scan.Tab.cols
		h.brows = int32Scratch.get(h.BuildHint)
	} else {
		h.bcols = make([][]int64, h.lwidth)
		for j := range h.bcols {
			h.bcols[j] = int64Scratch.get(h.BuildHint)
		}
	}
	// Drain the build side, then index its key vector once.
	for {
		cb, ok, err := build.NextColBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if h.stored {
			first := int32(scan.next - cb.N) // the batch's row 0 in the table
			if cb.Sel == nil {
				for i := range int32(cb.N) {
					h.brows = append(h.brows, first+i)
				}
			} else {
				for _, s := range cb.Sel {
					h.brows = append(h.brows, first+s)
				}
			}
			continue
		}
		// Copy the batch column by column: a dense batch is one bulk
		// copy per column, a selective one gathers through Sel.
		for j := range h.bcols {
			if cb.Sel == nil {
				h.bcols[j] = append(h.bcols[j], cb.Cols[j][:cb.N]...)
				continue
			}
			dst, col := h.bcols[j], cb.Cols[j]
			for _, s := range cb.Sel {
				dst = append(dst, col[s])
			}
			h.bcols[j] = dst
		}
	}
	keys := joinKeys{col: h.bcols[h.lpos], n: len(h.bcols[h.lpos])}
	if h.stored {
		keys.sel, keys.n = h.brows, len(h.brows)
	}
	h.chain = int32Scratch.get(keys.n)[:keys.n]
	h.head = buildJoinTable(keys, h.chain, h.KeyHint)
	return nil
}

// storedSource returns the scan an operator's batches are windows of,
// when it is a columnar scan or a filter fused on one: row i of such an
// operator's current ColBatch is row scan.next-cb.N+i of scan.Tab, whose
// column vectors and rows outlive every batch. Nil for any other
// operator, whose vectors may be recycled.
func storedSource(it Iterator) *ColScan {
	switch op := it.(type) {
	case *ColScan:
		return op
	case *ColFilter:
		return op.scan
	}
	return nil
}

// nextMatches fills lidx/ridx with the next match pairs, up to a batch,
// and returns their count; zero means end of stream. lidx indexes bcols
// (through brows, for a stored build side); all pairs of one call name
// rows of the same probe batch, h.pb.
func (h *ColHashJoin) nextMatches() (int, error) {
	m := 0
	for {
		// Drain the pending chain and walk the current probe batch.
		for m < h.size {
			if h.hit >= 0 {
				h.lidx[m], h.ridx[m] = h.hit, h.probeRow
				m++
				h.hit = h.chain[h.hit]
				continue
			}
			if h.pi >= h.pn {
				break
			}
			h.probeRow, h.hit = h.prow[h.pi], h.phead[h.pi]
			h.pi++
		}
		// Flush what we have before pulling the next probe batch: its
		// vectors may recycle the current ones, and ridx still points
		// into them.
		if m > 0 {
			if h.stored {
				for i, b := range h.lidx[:m] {
					h.lidx[i] = h.brows[b]
				}
			}
			return m, nil
		}
		cb, ok, err := h.right.NextColBatch()
		if err != nil || !ok {
			return 0, err
		}
		// Probe the whole batch up front, as in HashJoin.
		h.prow = growScratch(&int32Scratch, h.prow, cb.Len())
		h.phead = growScratch(&int32Scratch, h.phead, cb.Len())
		h.pb, h.pi = cb, 0
		h.pn = h.head.probeHits(cb.Cols[h.rpos][:cb.N], cb.Sel, h.prow, h.phead)
	}
}

// gather writes output column j of match pairs [lo,hi) to dst[off],
// dst[off+stride], ...: a build-side vector through lidx, or a vector of
// the current probe batch through ridx.
func (h *ColHashJoin) gather(j, lo, hi int, dst []int64, off, stride int) {
	if h.proj != nil {
		j = h.proj[j]
	}
	src, idx := h.bcols, h.lidx
	if j >= h.lwidth {
		src, idx, j = h.pb.Cols, h.ridx, j-h.lwidth
	}
	col := src[j]
	for _, i := range idx[lo:hi] {
		dst[off] = col[i]
		off += stride
	}
}

// NextColBatch returns the next columnar batch of joined rows. The
// output vectors are owned by the join and recycled per call.
func (h *ColHashJoin) NextColBatch() (*ColBatch, bool, error) {
	m, err := h.nextMatches()
	if err != nil || m == 0 {
		return nil, false, err
	}
	if h.vecs == nil {
		// Only a columnar consumer pays for the output vectors.
		h.vecs = make([][]int64, h.outWidth())
		for j := range h.vecs {
			h.vecs[j] = int64Scratch.get(h.size)[:h.size]
		}
	}
	h.view.Cols = h.view.Cols[:0]
	for j, vec := range h.vecs {
		h.gather(j, 0, m, vec, 0, 1)
		h.view.Cols = append(h.view.Cols, vec[:m])
	}
	h.view.Sel, h.view.N = nil, m
	return &h.view, true, nil
}

// NextBatch serves the next joined rows on the row protocol, gathering
// the match pairs straight into the batch's row storage: a row consumer
// pays one copy per value, not a gather into vectors and a transpose.
func (h *ColHashJoin) NextBatch() (*Batch, bool, error) {
	m, err := h.nextMatches()
	if err != nil || m == 0 {
		return nil, false, err
	}
	h.out.reset()
	w := h.outWidth()
	for lo := 0; lo < m; {
		block := h.out.carve(m-lo, w, w*h.size)
		hi := lo + len(block)/w
		for j := 0; j < w; j++ {
			h.gather(j, lo, hi, block, j, w)
		}
		lo = hi
	}
	return &h.out, true, nil
}

// Next returns the next joined row.
func (h *ColHashJoin) Next() (Row, bool, error) { return h.ra.next(h) }

// Close gives the build storage and the probe scratch back and closes
// both inputs.
func (h *ColHashJoin) Close() error {
	if !h.stored { // else bcols are the table's
		for _, v := range h.bcols {
			int64Scratch.put(v)
		}
	}
	for _, v := range h.vecs {
		int64Scratch.put(v)
	}
	for _, v := range [][]int32{h.brows, h.chain, h.lidx, h.ridx, h.prow, h.phead} {
		int32Scratch.put(v)
	}
	h.head.release()
	h.bcols, h.brows, h.vecs, h.chain, h.lidx, h.ridx, h.prow, h.phead = nil, nil, nil, nil, nil, nil, nil, nil
	h.pb = nil
	err := h.Left.Close()
	if err2 := h.Right.Close(); err == nil {
		err = err2
	}
	return err
}
