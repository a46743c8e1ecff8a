package exec

// MergeJoin joins two streams sorted ascending on the join columns,
// buffering the groups of equal keys on both sides so duplicate keys
// produce the full cross product. Inputs are consumed through batch
// cursors; joined rows are emitted in batches from an append-only arena.
type MergeJoin struct {
	// Left and Right are the sorted input streams.
	Left, Right Iterator

	lpos, rpos int
	proj       []int // output positions into left++right; nil = all
	lwidth     int
	size       int

	lc, rc cursor
	lgroup []Row
	rgroup []Row
	li, ri int
	lrow   Row
	rrow   Row
	ldone  bool
	rdone  bool
	out    Batch
	ra     rowAdapter
}

// NewMergeJoin resolves join columns (and an optional fused projection)
// against the input schemas. The projection positions index the
// concatenated left++right row.
func NewMergeJoin(left, right Iterator, lschema, rschema *Schema, lcol, rcol int, proj []int) *MergeJoin {
	return &MergeJoin{
		Left: left, Right: right,
		lpos: lcol, rpos: rcol,
		proj:   proj,
		lwidth: lschema.Width(),
		size:   DefaultBatchSize,
	}
}

// SetBatchSize sets the rows per batch.
func (m *MergeJoin) SetBatchSize(n int) { m.size = sizeOrDefault(n) }

// Open opens both inputs and primes the merge.
func (m *MergeJoin) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.lc.reset(asBatch(m.Left))
	m.rc.reset(asBatch(m.Right))
	m.lgroup, m.rgroup = nil, nil
	m.li, m.ri = 0, 0
	m.ldone, m.rdone = false, false
	m.ra.reset()
	var err error
	m.lrow, err = m.advanceLeft()
	if err != nil {
		return err
	}
	m.rrow, err = m.advanceRight()
	return err
}

func (m *MergeJoin) advanceLeft() (Row, error) {
	row, ok, err := m.lc.next()
	if err != nil {
		return nil, err
	}
	if !ok {
		m.ldone = true
		return nil, nil
	}
	return row, nil
}

func (m *MergeJoin) advanceRight() (Row, error) {
	row, ok, err := m.rc.next()
	if err != nil {
		return nil, err
	}
	if !ok {
		m.rdone = true
		return nil, nil
	}
	return row, nil
}

// NextBatch returns the next batch of joined rows.
func (m *MergeJoin) NextBatch() (*Batch, bool, error) {
	m.out.reset()
	for len(m.out.Rows) < m.size {
		// Emit from buffered groups first.
		if m.li < len(m.lgroup) {
			m.combine(m.lgroup[m.li], m.rgroup[m.ri])
			m.ri++
			if m.ri == len(m.rgroup) {
				m.ri = 0
				m.li++
			}
			continue
		}
		m.lgroup, m.rgroup = m.lgroup[:0], m.rgroup[:0]
		m.li, m.ri = 0, 0

		// Align the inputs on the next matching key.
		aligned := false
		for !aligned {
			if m.ldone || m.rdone {
				if len(m.out.Rows) == 0 {
					return nil, false, nil
				}
				return &m.out, true, nil
			}
			lk, rk := m.lrow[m.lpos], m.rrow[m.rpos]
			if lk < rk {
				var err error
				if m.lrow, err = m.advanceLeft(); err != nil {
					return nil, false, err
				}
				continue
			}
			if lk > rk {
				var err error
				if m.rrow, err = m.advanceRight(); err != nil {
					return nil, false, err
				}
				continue
			}
			// Buffer both equal-key groups.
			key := lk
			for !m.ldone && m.lrow[m.lpos] == key {
				m.lgroup = append(m.lgroup, m.lrow)
				var err error
				if m.lrow, err = m.advanceLeft(); err != nil {
					return nil, false, err
				}
			}
			for !m.rdone && m.rrow[m.rpos] == key {
				m.rgroup = append(m.rgroup, m.rrow)
				var err error
				if m.rrow, err = m.advanceRight(); err != nil {
					return nil, false, err
				}
			}
			aligned = true
		}
	}
	return &m.out, true, nil
}

func (m *MergeJoin) combine(l, r Row) {
	combineInto(&m.out, l, r, m.proj, m.size)
}

// combineInto appends the concatenation of l and r (optionally projected
// to proj positions) to the batch, carving from its arena.
func combineInto(out *Batch, l, r Row, proj []int, size int) {
	if proj == nil {
		w := len(l) + len(r)
		row := out.alloc(w, w*size)
		copy(row, l)
		copy(row[len(l):], r)
		return
	}
	w := len(proj)
	row := out.alloc(w, w*size)
	for i, p := range proj {
		if p < len(l) {
			row[i] = l[p]
		} else {
			row[i] = r[p-len(l)]
		}
	}
}

// Next returns the next joined row.
func (m *MergeJoin) Next() (Row, bool, error) { return m.ra.next(m) }

// Close closes both inputs.
func (m *MergeJoin) Close() error {
	err := m.Left.Close()
	if err2 := m.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// HashJoin is hybrid hash join without partition files: the left input
// builds an in-memory table, the right input probes batch by batch.
type HashJoin struct {
	// Left and Right are the input streams; Left builds.
	Left, Right Iterator
	// BuildHint pre-sizes the build hash table; the plan builder sets it
	// from the optimizer's cardinality estimate so the table is
	// allocated once instead of grown from empty.
	BuildHint int
	// KeyHint estimates the distinct join keys on the build side. The
	// key index needs slots per key, not per row, so a duplicate-heavy
	// build gets a table sized (and cache-footprinted) by its key count.
	KeyHint int

	lpos, rpos int
	proj       []int
	lwidth     int
	size       int

	// The build side is an array-chained hash table: rows holds every
	// build row, head is an open-addressed index from key to the newest
	// row with that key, and chain links rows sharing a key (-1 ends a
	// chain). Flat slices instead of a map[int64][]Row keep the build to
	// three allocations and make probes a couple of array reads.
	right BatchIterator
	rows  []Row
	head  joinTable
	chain []int32
	pb    *Batch  // current probe batch
	hits  []int32 // per probe-batch row: initial chain position
	pi    int
	hit   int32 // current chain position; -1 = exhausted
	probe Row
	out   Batch
	ra    rowAdapter
}

// joinTable is a linear-probing hash index from int64 join keys to row
// indices, sized to a power of two at no more than half load. A key and
// its row reference share one 16-byte slot, so a probe touches a single
// cache line; ref 0 means empty (stored indices are offset by one), so
// the empty state is all zeroes. The slots are operator scratch (see
// scratch.go): whoever makes a table releases it.
type joinTable struct {
	slots []joinSlot
	mask  uint64
	shift uint
}

type joinSlot struct {
	key int64
	ref int32 // row index + 1; 0 = empty
}

func newJoinTable(capacity int) joinTable {
	size, bits := 16, uint(4)
	for size < 2*capacity {
		size *= 2
		bits++
	}
	slots := slotScratch.get(size)[:size]
	clear(slots)
	return joinTable{slots: slots, mask: uint64(size - 1), shift: 64 - bits}
}

// release gives the slots back to the scratch pool; the table is empty
// afterwards.
func (t *joinTable) release() {
	slotScratch.put(t.slots)
	*t = joinTable{}
}

// hash mixes the key multiplicatively and keeps the high bits, which
// carry the most entropy, so consecutive join values spread across slots
// (fibonacci hashing).
func (t *joinTable) hash(k int64) uint64 {
	return (uint64(k) * 0x9e3779b97f4a7c15) >> t.shift
}

// get returns the row index stored for k, or -1.
func (t *joinTable) get(k int64) int32 {
	for s := t.hash(k); ; s = (s + 1) & t.mask {
		sl := &t.slots[s]
		if sl.ref == 0 {
			return -1
		} else if sl.key == k {
			return sl.ref - 1
		}
	}
}

// put stores idx for k, returning the previous index for the key (-1 if
// new) and growing when the table passes half load. The caller counts
// insertions and calls grow; put itself assumes a free slot exists.
func (t *joinTable) put(k int64, idx int32) int32 {
	for s := t.hash(k); ; s = (s + 1) & t.mask {
		sl := &t.slots[s]
		if sl.ref == 0 {
			sl.key, sl.ref = k, idx+1
			return -1
		} else if sl.key == k {
			prev := sl.ref - 1
			sl.ref = idx + 1
			return prev
		}
	}
}

// lookupOrInsert returns the index stored for k, or stores idx for it
// and returns -1 (new key). Unlike put it never replaces an existing
// entry, which makes it a group-index primitive: the first index
// assigned to a key wins. The caller ensures capacity via grow.
func (t *joinTable) lookupOrInsert(k int64, idx int32) int32 {
	for s := t.hash(k); ; s = (s + 1) & t.mask {
		sl := &t.slots[s]
		if sl.ref == 0 {
			sl.key, sl.ref = k, idx+1
			return -1
		} else if sl.key == k {
			return sl.ref - 1
		}
	}
}

// grow rebuilds the table when the requested entry count would pass half
// load, rehashing every slot. Incremental callers (one insert at a time)
// get the classic doubling; bulk callers reserving a whole batch's worst
// case up front get a table sized for it in one rebuild.
func (t *joinTable) grow(entries int) {
	if 2*entries < len(t.slots) {
		return
	}
	capacity := entries
	if capacity < len(t.slots) {
		capacity = len(t.slots) // newJoinTable doubles: size >= 2*cap
	}
	old := *t
	*t = newJoinTable(capacity)
	for _, sl := range old.slots {
		if sl.ref != 0 {
			t.put(sl.key, sl.ref-1)
		}
	}
	old.release()
}

// NewHashJoin resolves join columns (and an optional fused projection)
// against the input schemas.
func NewHashJoin(left, right Iterator, lschema, rschema *Schema, lcol, rcol int, proj []int) *HashJoin {
	return &HashJoin{
		Left: left, Right: right,
		lpos: lcol, rpos: rcol,
		proj:   proj,
		lwidth: lschema.Width(),
		size:   DefaultBatchSize,
	}
}

// SetBatchSize sets the rows per batch.
func (h *HashJoin) SetBatchSize(n int) { h.size = sizeOrDefault(n) }

// Open builds the hash table from the left input.
func (h *HashJoin) Open() error {
	if err := h.Left.Open(); err != nil {
		return err
	}
	if err := h.Right.Open(); err != nil {
		return err
	}
	h.right = asBatch(h.Right)
	h.rows = make([]Row, 0, h.BuildHint)
	tableHint := h.BuildHint
	if h.KeyHint > 0 && h.KeyHint < tableHint {
		tableHint = h.KeyHint
	}
	h.head = newJoinTable(tableHint)
	h.chain = make([]int32, 0, h.BuildHint)
	h.pb, h.pi, h.hit, h.probe = nil, 0, -1, nil
	h.ra.reset()
	build := asBatch(h.Left)
	keys := 0
	for {
		b, ok, err := build.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, row := range b.Rows {
			idx := int32(len(h.rows))
			h.rows = append(h.rows, row)
			h.head.grow(keys + 1)
			if prev := h.head.put(row[h.lpos], idx); prev >= 0 {
				h.chain = append(h.chain, prev)
			} else {
				h.chain = append(h.chain, -1)
				keys++
			}
		}
	}
}

// NextBatch returns the next batch of joined rows.
func (h *HashJoin) NextBatch() (*Batch, bool, error) {
	h.out.reset()
	for len(h.out.Rows) < h.size {
		if h.hit >= 0 {
			combineInto(&h.out, h.rows[h.hit], h.probe, h.proj, h.size)
			h.hit = h.chain[h.hit]
			continue
		}
		if h.pb == nil || h.pi >= len(h.pb.Rows) {
			b, ok, err := h.right.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				if len(h.out.Rows) == 0 {
					return nil, false, nil
				}
				return &h.out, true, nil
			}
			h.pb, h.pi = b, 0
			// Probe the whole batch up front: the lookups are
			// independent, so a tight loop lets the out-of-order core
			// overlap their cache misses instead of serializing one
			// miss per emitted row.
			if cap(h.hits) < len(b.Rows) {
				h.hits = make([]int32, len(b.Rows))
			}
			h.hits = h.hits[:len(b.Rows)]
			for i, row := range b.Rows {
				h.hits[i] = h.head.get(row[h.rpos])
			}
		}
		h.probe = h.pb.Rows[h.pi]
		h.hit = h.hits[h.pi]
		h.pi++
	}
	return &h.out, true, nil
}

// Next returns the next joined row.
func (h *HashJoin) Next() (Row, bool, error) { return h.ra.next(h) }

// Close releases the hash table and closes both inputs.
func (h *HashJoin) Close() error {
	h.head.release()
	h.rows, h.chain = nil, nil
	h.pb = nil
	err := h.Left.Close()
	if err2 := h.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// NLJoin is block nested-loops join on an equality predicate; it
// materializes the right input and scans it per left row.
type NLJoin struct {
	// Left and Right are the input streams.
	Left, Right Iterator

	lpos, rpos int
	lwidth     int
	size       int

	lc    cursor
	inner []Row
	lrow  Row
	ri    int
	ldone bool
	out   Batch
	ra    rowAdapter
}

// NewNLJoin resolves join columns against the input schemas.
func NewNLJoin(left, right Iterator, lschema, rschema *Schema, lcol, rcol int) *NLJoin {
	return &NLJoin{Left: left, Right: right, lpos: lcol, rpos: rcol,
		lwidth: lschema.Width(), size: DefaultBatchSize}
}

// SetBatchSize sets the rows per batch.
func (n *NLJoin) SetBatchSize(s int) { n.size = sizeOrDefault(s) }

// Open materializes the inner (right) input.
func (n *NLJoin) Open() error {
	if err := n.Left.Open(); err != nil {
		return err
	}
	if err := n.Right.Open(); err != nil {
		return err
	}
	n.lc.reset(asBatch(n.Left))
	n.inner = n.inner[:0]
	n.lrow, n.ri, n.ldone = nil, 0, false
	n.ra.reset()
	inner := asBatch(n.Right)
	for {
		b, ok, err := inner.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		n.inner = append(n.inner, b.Rows...)
	}
}

// NextBatch returns the next batch of joined rows.
func (n *NLJoin) NextBatch() (*Batch, bool, error) {
	n.out.reset()
	for len(n.out.Rows) < n.size {
		if n.lrow == nil {
			if n.ldone {
				break
			}
			row, ok, err := n.lc.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				n.ldone = true
				break
			}
			n.lrow, n.ri = row, 0
		}
		for n.ri < len(n.inner) && len(n.out.Rows) < n.size {
			r := n.inner[n.ri]
			n.ri++
			if n.lrow[n.lpos] == r[n.rpos] {
				combineInto(&n.out, n.lrow, r, nil, n.size)
			}
		}
		if n.ri >= len(n.inner) {
			n.lrow = nil
		}
	}
	if len(n.out.Rows) == 0 {
		return nil, false, nil
	}
	return &n.out, true, nil
}

// Next returns the next joined row.
func (n *NLJoin) Next() (Row, bool, error) { return n.ra.next(n) }

// Close releases the inner buffer and closes both inputs.
func (n *NLJoin) Close() error {
	n.inner = nil
	err := n.Left.Close()
	if err2 := n.Right.Close(); err == nil {
		err = err2
	}
	return err
}
