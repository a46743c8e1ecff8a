package exec

import "math/bits"

// The batch protocol. Every operator in this package is a batch
// iterator (Iterator): its NextBatch method moves up to BatchSize rows
// per call, so the per-row interface-dispatch and allocation costs of
// the classic open/next/close loop are amortized across a whole batch.
// A batch size of 1 is the row-at-a-time loop. Row-structured consumers
// read their inputs a row at a time through a cursor.
//
// Lifetime contract: the *Batch returned by NextBatch, and its Rows
// header slice, are valid only until the next NextBatch or Close call on
// the same operator. The row *data* the headers point at is never
// reused: it lives in stored tables, materialized operator state, or
// append-only arenas. A consumer that retains rows across batch
// boundaries therefore only needs to copy the Row headers (cheap slice
// headers), never the values. A batch's size is its producer's: a
// consumer takes batches of any non-zero size, whatever its own
// BatchSize.

// DefaultBatchSize is the target rows per batch.
const DefaultBatchSize = 1024

// Batch is one unit of data flow: a reusable vector of rows. The Rows
// header slice is recycled across NextBatch calls; value storage
// allocated through alloc is append-only and stays valid forever.
//
// An operator that fills its own batch — a scan too, whose headers name
// windows of its table's row slab — takes the header vector from the
// scratch pool on its first reset and gives it back in Close (release):
// the batch is not valid past Close, so nothing can still read it. A
// view batch, whose Rows are a window onto a header vector it does not
// own (a spool, materialized groups, an exchange message), sets Rows
// directly and never resets, so it never takes or gives back anything.
type Batch struct {
	// Rows are the batch's tuples, valid until the producing operator's
	// next NextBatch call.
	Rows []Row

	arena  []int64
	pooled bool // Rows came from rowScratch and go back in release
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// reset empties the batch for up to n new rows; the first reset takes
// a header vector for n rows from the scratch pool. The arena is kept:
// previously allocated row data is never overwritten, only the unused
// capacity beyond it is carved further.
func (b *Batch) reset(n int) {
	if b.Rows == nil {
		b.Rows, b.pooled = rowScratch.get(n), true
	}
	b.Rows = b.Rows[:0]
}

// release gives a header vector that reset took back to the pool,
// cleared (a pooled header would keep the rows it points at alive), and
// leaves the batch empty; a second release, or one on a view batch,
// gives nothing back. The arena is not given back: rows carved from it
// may outlive the batch.
func (b *Batch) release() {
	if b.pooled {
		rowScratch.put(b.Rows)
	}
	b.Rows, b.pooled = nil, false
}

// add appends an existing row (header copy only).
func (b *Batch) add(r Row) { b.Rows = append(b.Rows, r) }

// addStored appends the headers of stored rows [lo,hi) of t.
func (b *Batch) addStored(t *Table, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.Rows = append(b.Rows, t.Row(i))
	}
}

// alloc appends a fresh zero row of the given width, carving it from the
// batch's arena, which refill sizes. Arena memory is never rewound, so
// rows stay valid after reset.
func (b *Batch) alloc(width, chunk int) Row {
	if cap(b.arena)-len(b.arena) < width {
		b.refill(width, width, chunk)
	}
	off := len(b.arena)
	b.arena = b.arena[:off+width]
	r := Row(b.arena[off : off+width : off+width])
	b.Rows = append(b.Rows, r)
	return r
}

// refill replaces a spent arena with a fresh one for at least need
// values: need rounded up to a power of two, at least double the last
// arena, at most chunk (typically width×BatchSize), and a whole number
// of rows. A statement that returns a few rows pays an arena of their
// size, not a full batch's; one that returns many reaches whole chunks
// after a few doublings, so a full batch of new rows costs one
// allocation instead of one per row. Exact-size arenas would cost more:
// a large allocation is rounded up to whole pages, and batches that
// each fill their own arena strand the rest of every page.
func (b *Batch) refill(need, width, chunk int) {
	c := max(1<<bits.Len(uint(need-1)), 2*cap(b.arena))
	b.arena = make([]int64, 0, arenaChunk(width, min(c, chunk)))
}

// arenaChunk sizes an arena refill: at least width, rounded up to a
// whole-row multiple. Without the rounding, a chunk that is not a
// multiple of the row width strands up to width-1 slots at the end of
// every arena (the refill check sees less than a full row left), costing
// extra refill allocations for the same row count.
func arenaChunk(width, chunk int) int {
	if chunk < width {
		chunk = width
	}
	if rem := chunk % width; rem != 0 {
		chunk += width - rem
	}
	return chunk
}

// carve is the bulk counterpart of alloc for operators that fill a whole
// batch at once: it appends the headers of up to n (n >= 1) fresh rows
// of the given width and returns the contiguous row-major block behind
// them for the caller to fill, len(block)/width rows. It hands out what
// is left of the current arena before refilling, so a caller that loops
// until its n rows are placed strands nothing at a refill, whatever the
// batch sizes; a refill, sized for the n rows, happens only when not
// one more row fits.
func (b *Batch) carve(n, width, chunk int) []int64 {
	free := (cap(b.arena) - len(b.arena)) / width
	if free == 0 {
		b.refill(n*width, width, chunk)
		free = cap(b.arena) / width
	}
	need := min(n, free) * width
	off := len(b.arena)
	b.arena = b.arena[:off+need]
	block := b.arena[off : off+need : off+need]
	for r := 0; r < need; r += width {
		b.Rows = append(b.Rows, Row(block[r:r+width:r+width]))
	}
	return block
}

// cursor is the inlined consumption side of the batch protocol: a
// row-level view over an Iterator whose per-row advance is a
// concrete-type method (no interface dispatch) indexing the current
// batch. Operators with inherently row-structured logic (merge join,
// merge set operations, sorted grouping) consume their inputs through
// cursors, paying one interface call per batch instead of per row.
type cursor struct {
	src  Iterator
	b    *Batch
	i    int
	done bool
	// order is the sort order the consumer relies on, nil for none; debug
	// builds check each row against the last one (checkOrder).
	order []sortKey
	last  Row
}

func newCursor(src Iterator) cursor { return cursor{src: src} }

// reset starts the cursor over src, whose rows the consumer expects in
// order (nil: in any order).
func (c *cursor) reset(src Iterator, order []sortKey) { *c = cursor{src: src, order: order} }

// next returns the next row; ok is false at end of stream.
func (c *cursor) next() (Row, bool, error) {
	for {
		if c.b != nil && c.i < len(c.b.Rows) {
			row := c.b.Rows[c.i]
			c.i++
			if debugBuild && c.order != nil {
				checkOrder("merge input", c.last, row, c.order)
				c.last = row
			}
			return row, true, nil
		}
		if c.done {
			return nil, false, nil
		}
		b, ok, err := c.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			c.done = true
			return nil, false, nil
		}
		c.b, c.i = b, 0
	}
}

// batchSized is implemented by every operator in this package; the plan
// builder uses it to propagate the configured batch size down a tree.
type batchSized interface {
	SetBatchSize(n int)
}

// sizeOrDefault normalizes a configured batch size.
func sizeOrDefault(n int) int {
	if n <= 0 {
		return DefaultBatchSize
	}
	return n
}
