package exec

import (
	"context"
	"fmt"
)

// MergeIntersect computes set intersection of two streams sorted
// identically on every column. Output rows are deduplicated, following
// set semantics.
type MergeIntersect struct {
	// Left and Right are the sorted input streams.
	Left, Right Iterator

	order []sortKey // the shared sort order
	size  int

	lc, rc       cursor
	lrow, rrow   Row
	ldone, rdone bool
	last         Row
	out          Batch
	ra           rowAdapter
}

// NewMergeIntersect takes the shared sort order as row positions.
func NewMergeIntersect(left, right Iterator, order []int) *MergeIntersect {
	return &MergeIntersect{Left: left, Right: right, order: ascKeys(order), size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (m *MergeIntersect) SetBatchSize(n int) { m.size = sizeOrDefault(n) }

// Open opens and primes both inputs.
func (m *MergeIntersect) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.lc.reset(asBatch(m.Left), m.order)
	m.rc.reset(asBatch(m.Right), m.order)
	m.lrow, m.rrow, m.last = nil, nil, nil
	m.ldone, m.rdone = false, false
	m.ra.reset()
	var err error
	if m.lrow, err = advance(&m.lc, &m.ldone); err != nil {
		return err
	}
	m.rrow, err = advance(&m.rc, &m.rdone)
	return err
}

// advance pulls the next row from a cursor, flagging end of stream.
func advance(c *cursor, done *bool) (Row, error) {
	row, ok, err := c.next()
	if err != nil {
		return nil, err
	}
	if !ok {
		*done = true
		return nil, nil
	}
	return row, nil
}

// NextBatch returns the next batch of rows present in both inputs.
func (m *MergeIntersect) NextBatch() (*Batch, bool, error) {
	m.out.reset(m.size)
	for !m.ldone && !m.rdone && len(m.out.Rows) < m.size {
		switch cmpKeys(m.lrow, m.rrow, m.order) {
		case -1:
			var err error
			if m.lrow, err = advance(&m.lc, &m.ldone); err != nil {
				return nil, false, err
			}
		case 1:
			var err error
			if m.rrow, err = advance(&m.rc, &m.rdone); err != nil {
				return nil, false, err
			}
		default:
			out := m.lrow
			var err error
			if m.lrow, err = advance(&m.lc, &m.ldone); err != nil {
				return nil, false, err
			}
			if m.rrow, err = advance(&m.rc, &m.rdone); err != nil {
				return nil, false, err
			}
			if m.last != nil && cmpKeys(out, m.last, m.order) == 0 {
				continue // set semantics: suppress duplicates
			}
			m.last = out
			m.out.add(out)
		}
	}
	if len(m.out.Rows) == 0 {
		return nil, false, nil
	}
	return &m.out, true, nil
}

// Next returns the next row present in both inputs.
func (m *MergeIntersect) Next() (Row, bool, error) { return m.ra.next(m) }

// Close gives the batch's headers back and closes both inputs.
func (m *MergeIntersect) Close() error {
	m.out.release()
	err := m.Left.Close()
	if err2 := m.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// HashIntersect computes set intersection by building a hash set over
// the left input and probing with the right.
type HashIntersect struct {
	// Left and Right are the input streams.
	Left, Right Iterator
	// SizeHint pre-sizes the membership set; the plan builder sets it
	// from the optimizer's cardinality estimate.
	SizeHint int

	size int

	set map[string]Row
	kb  []byte // the probed row's key, reused
	rc  cursor
	out Batch
	ra  rowAdapter
}

// NewHashIntersect creates the operator.
func NewHashIntersect(left, right Iterator) *HashIntersect {
	return &HashIntersect{Left: left, Right: right, size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (h *HashIntersect) SetBatchSize(n int) { h.size = sizeOrDefault(n) }

// Open builds the set from the left input.
func (h *HashIntersect) Open() error {
	if err := h.Left.Open(); err != nil {
		return err
	}
	if err := h.Right.Open(); err != nil {
		return err
	}
	h.rc.reset(asBatch(h.Right), nil)
	h.ra.reset()
	h.set = make(map[string]Row, h.SizeHint)
	build := newCursor(asBatch(h.Left))
	for {
		row, ok, err := build.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		h.kb = appendRowKey(h.kb[:0], row)
		h.set[string(h.kb)] = row
	}
}

// appendRowKey appends a whole row's set-membership key to dst. Probes
// index their maps with string(key) over one reused buffer, which Go
// does not allocate for; only an insert copies the key into a string.
func appendRowKey(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56), ';')
	}
	return dst
}

// NextBatch returns the next batch of distinct rows found in both inputs.
func (h *HashIntersect) NextBatch() (*Batch, bool, error) {
	h.out.reset(h.size)
	for len(h.out.Rows) < h.size {
		row, ok, err := h.rc.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		h.kb = appendRowKey(h.kb[:0], row)
		if _, hit := h.set[string(h.kb)]; hit {
			delete(h.set, string(h.kb)) // emit each set element once
			h.out.add(row)
		}
	}
	if len(h.out.Rows) == 0 {
		return nil, false, nil
	}
	return &h.out, true, nil
}

// Next returns the next distinct row found in both inputs.
func (h *HashIntersect) Next() (Row, bool, error) { return h.ra.next(h) }

// Close releases the set and closes both inputs.
func (h *HashIntersect) Close() error {
	h.out.release()
	h.set = nil
	err := h.Left.Close()
	if err2 := h.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// MergeUnion computes set union of two streams sorted identically on
// every column, preserving the shared order and suppressing duplicates.
type MergeUnion struct {
	// Left and Right are the sorted input streams.
	Left, Right Iterator

	order []sortKey
	size  int

	lc, rc       cursor
	lrow, rrow   Row
	ldone, rdone bool
	last         Row
	out          Batch
	ra           rowAdapter
}

// NewMergeUnion takes the shared sort order as row positions.
func NewMergeUnion(left, right Iterator, order []int) *MergeUnion {
	return &MergeUnion{Left: left, Right: right, order: ascKeys(order), size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (m *MergeUnion) SetBatchSize(n int) { m.size = sizeOrDefault(n) }

// Open opens and primes both inputs.
func (m *MergeUnion) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.lc.reset(asBatch(m.Left), m.order)
	m.rc.reset(asBatch(m.Right), m.order)
	m.lrow, m.rrow, m.last = nil, nil, nil
	m.ldone, m.rdone = false, false
	m.ra.reset()
	var err error
	if m.lrow, err = advance(&m.lc, &m.ldone); err != nil {
		return err
	}
	m.rrow, err = advance(&m.rc, &m.rdone)
	return err
}

// NextBatch returns the next batch of distinct rows, in order.
func (m *MergeUnion) NextBatch() (*Batch, bool, error) {
	m.out.reset(m.size)
	for len(m.out.Rows) < m.size {
		var out Row
		switch {
		case m.ldone && m.rdone:
			if len(m.out.Rows) == 0 {
				return nil, false, nil
			}
			return &m.out, true, nil
		case m.rdone || (!m.ldone && cmpKeys(m.lrow, m.rrow, m.order) <= 0):
			out = m.lrow
			var err error
			if m.lrow, err = advance(&m.lc, &m.ldone); err != nil {
				return nil, false, err
			}
		default:
			out = m.rrow
			var err error
			if m.rrow, err = advance(&m.rc, &m.rdone); err != nil {
				return nil, false, err
			}
		}
		if m.last != nil && cmpKeys(out, m.last, m.order) == 0 {
			continue // set semantics: suppress duplicates
		}
		m.last = out
		m.out.add(out)
	}
	return &m.out, true, nil
}

// Next returns the next distinct row from either input, in order.
func (m *MergeUnion) Next() (Row, bool, error) { return m.ra.next(m) }

// Close gives the batch's headers back and closes both inputs.
func (m *MergeUnion) Close() error {
	m.out.release()
	err := m.Left.Close()
	if err2 := m.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// HashUnion computes set union via a hash set over both inputs.
type HashUnion struct {
	// Left and Right are the input streams.
	Left, Right Iterator
	// SizeHint pre-sizes the membership set; the plan builder sets it
	// from the optimizer's output-cardinality estimate.
	SizeHint int

	size int

	seen    map[string]bool
	kb      []byte // the probed row's key, reused
	lc, rc  cursor
	onRight bool
	out     Batch
	ra      rowAdapter
}

// NewHashUnion creates the operator.
func NewHashUnion(left, right Iterator) *HashUnion {
	return &HashUnion{Left: left, Right: right, size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (h *HashUnion) SetBatchSize(n int) { h.size = sizeOrDefault(n) }

// Open opens both inputs.
func (h *HashUnion) Open() error {
	if err := h.Left.Open(); err != nil {
		return err
	}
	if err := h.Right.Open(); err != nil {
		return err
	}
	h.lc.reset(asBatch(h.Left), nil)
	h.rc.reset(asBatch(h.Right), nil)
	h.seen = make(map[string]bool, h.SizeHint)
	h.onRight = false
	h.ra.reset()
	return nil
}

// NextBatch returns the next batch of unseen rows, draining left then
// right.
func (h *HashUnion) NextBatch() (*Batch, bool, error) {
	h.out.reset(h.size)
	for len(h.out.Rows) < h.size {
		src := &h.lc
		if h.onRight {
			src = &h.rc
		}
		row, ok, err := src.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if h.onRight {
				break
			}
			h.onRight = true
			continue
		}
		h.kb = appendRowKey(h.kb[:0], row)
		if h.seen[string(h.kb)] {
			continue
		}
		h.seen[string(h.kb)] = true
		h.out.add(row)
	}
	if len(h.out.Rows) == 0 {
		return nil, false, nil
	}
	return &h.out, true, nil
}

// Next returns the next row not seen before, draining left then right.
func (h *HashUnion) Next() (Row, bool, error) { return h.ra.next(h) }

// Close releases the set and closes both inputs.
func (h *HashUnion) Close() error {
	h.out.release()
	h.seen = nil
	err := h.Left.Close()
	if err2 := h.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// gatherBatchMsg carries one batch of row headers (or a producer error)
// from a partition goroutine to the merging consumer.
type gatherBatchMsg struct {
	rows []Row
	err  error
}

// gatherProduce drains one partition iterator batch by batch into a
// channel, copying only the row headers per send (the data behind them
// is stable; see the package lifetime contract). It returns when the
// partition ends, errors, or stop closes.
func gatherProduce(it Iterator, out chan<- gatherBatchMsg, stop <-chan struct{}) {
	if err := it.Open(); err != nil {
		select {
		case out <- gatherBatchMsg{err: err}:
		case <-stop:
		}
		return
	}
	defer it.Close()
	bi := asBatch(it)
	for {
		b, ok, err := bi.NextBatch()
		if err != nil {
			select {
			case out <- gatherBatchMsg{err: err}:
			case <-stop:
			}
			return
		}
		if !ok {
			return
		}
		rows := make([]Row, len(b.Rows))
		copy(rows, b.Rows)
		select {
		case out <- gatherBatchMsg{rows: rows}:
		case <-stop:
			return
		}
	}
}

// gatherQueueBatches bounds the per-gather channel depth in batches.
const gatherQueueBatches = 4

// Gather merges the partition streams of a parallel plan into one
// serial stream, draining each partition's iterator in its own
// goroutine — the "merge" role of Volcano's exchange operator. Rows
// move between goroutines a batch at a time.
type Gather struct {
	// Parts are the per-partition streams.
	Parts []Iterator

	// ctx, when the builder sets it, fails NextBatch once canceled;
	// checked once per batch, since the partitions may have queued
	// every batch before the cancel.
	ctx     context.Context
	batches chan gatherBatchMsg
	stop    chan struct{}
	open    bool
	view    Batch
	ra      rowAdapter
}

// NewGather creates the operator.
func NewGather(parts []Iterator) *Gather { return &Gather{Parts: parts} }

// Open starts one producer goroutine per partition.
func (g *Gather) Open() error {
	g.batches = make(chan gatherBatchMsg, gatherQueueBatches*len(g.Parts))
	g.stop = make(chan struct{})
	g.open = true
	g.ra.reset()
	done := make(chan struct{}, len(g.Parts))
	for _, p := range g.Parts {
		go func(it Iterator) {
			defer func() { done <- struct{}{} }()
			gatherProduce(it, g.batches, g.stop)
		}(p)
	}
	go func() {
		for range g.Parts {
			<-done
		}
		close(g.batches)
	}()
	return nil
}

// NextBatch returns the next batch from any partition.
func (g *Gather) NextBatch() (*Batch, bool, error) {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	msg, ok := <-g.batches
	if !ok {
		return nil, false, nil
	}
	if msg.err != nil {
		return nil, false, fmt.Errorf("exec: partition failed: %w", msg.err)
	}
	g.view.Rows = msg.rows
	return &g.view, true, nil
}

// Next returns the next row from any partition.
func (g *Gather) Next() (Row, bool, error) { return g.ra.next(g) }

// Close stops the producers.
func (g *Gather) Close() error {
	if g.open {
		close(g.stop)
		g.open = false
	}
	return nil
}

// GatherOrdered merges partition streams that are each sorted on the
// same keys into one stream preserving that order: partitions still
// produce in parallel, the consumer runs a k-way merge over their
// buffered heads (the sort-preserving variant of exchange-merge).
type GatherOrdered struct {
	// Parts are the per-partition streams, each sorted on the keys.
	Parts []Iterator

	keys []sortKey
	size int
	ctx  context.Context // as in Gather

	chans []chan gatherBatchMsg
	bufs  [][]Row
	idx   []int
	done  []bool
	last  []Row // each partition's last merged row, kept by debug builds
	stop  chan struct{}
	open  bool
	out   Batch
	ra    rowAdapter
}

// NewGatherOrdered takes the shared sort order as (position, desc)
// pairs resolved against the partition schema.
func NewGatherOrdered(parts []Iterator, keys []sortKey) *GatherOrdered {
	return &GatherOrdered{Parts: parts, keys: keys, size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (g *GatherOrdered) SetBatchSize(n int) { g.size = sizeOrDefault(n) }

// Open starts one producer goroutine per partition.
func (g *GatherOrdered) Open() error {
	g.stop = make(chan struct{})
	g.open = true
	g.chans = make([]chan gatherBatchMsg, len(g.Parts))
	g.bufs = make([][]Row, len(g.Parts))
	g.idx = make([]int, len(g.Parts))
	g.done = make([]bool, len(g.Parts))
	if debugBuild {
		g.last = make([]Row, len(g.Parts))
	}
	g.ra.reset()
	for i, p := range g.Parts {
		ch := make(chan gatherBatchMsg, gatherQueueBatches)
		g.chans[i] = ch
		go func(it Iterator, ch chan gatherBatchMsg) {
			defer close(ch)
			gatherProduce(it, ch, g.stop)
		}(p, ch)
	}
	return nil
}

// head ensures partition i has a buffered row available, pulling the
// next batch from its channel if needed; returns false once the
// partition is exhausted.
func (g *GatherOrdered) head(i int) (Row, bool, error) {
	for {
		if g.idx[i] < len(g.bufs[i]) {
			return g.bufs[i][g.idx[i]], true, nil
		}
		if g.done[i] {
			return nil, false, nil
		}
		msg, ok := <-g.chans[i]
		if !ok {
			g.done[i] = true
			return nil, false, nil
		}
		if msg.err != nil {
			return nil, false, fmt.Errorf("exec: partition failed: %w", msg.err)
		}
		g.bufs[i], g.idx[i] = msg.rows, 0
	}
}

// NextBatch returns the next batch of the k-way merge.
func (g *GatherOrdered) NextBatch() (*Batch, bool, error) {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	g.out.reset(g.size)
	for len(g.out.Rows) < g.size {
		best := -1
		var bestRow Row
		for i := range g.Parts {
			row, ok, err := g.head(i)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			if best < 0 || cmpKeys(row, bestRow, g.keys) < 0 {
				best, bestRow = i, row
			}
		}
		if best < 0 {
			break
		}
		if debugBuild {
			checkOrder("gathered partition", g.last[best], bestRow, g.keys)
			g.last[best] = bestRow
		}
		g.idx[best]++
		g.out.add(bestRow)
	}
	if len(g.out.Rows) == 0 {
		return nil, false, nil
	}
	return &g.out, true, nil
}

// Next returns the next row of the k-way merge.
func (g *GatherOrdered) Next() (Row, bool, error) { return g.ra.next(g) }

// Close stops the producers.
func (g *GatherOrdered) Close() error {
	g.out.release()
	if g.open {
		close(g.stop)
		g.open = false
	}
	return nil
}
