package exec

import (
	"fmt"
	"math"
	"math/bits"
)

// MergeJoin joins two streams sorted ascending on the join columns,
// buffering the groups of equal keys on both sides so duplicate keys
// produce the full cross product. Inputs are aligned on windows of their
// join keys (mergeSide); joined rows are emitted from an append-only arena.
type MergeJoin struct {
	// Left and Right are the sorted input streams.
	Left, Right Iterator

	lpos, rpos int
	proj       []int // output positions into left++right; nil = all
	lwidth     int
	size       int

	l, r   mergeSide
	lgroup []Row
	rgroup []Row
	li, ri int
	out    Batch
}

// mergeSide is one input of a merge join, read a window of join keys at
// a time. A one-run sort whose first key is the join column, ascending,
// hands over its sorted keys (sortRun.key), and a row is read only when
// its key matches; any other input's keys are taken from its batches.
type mergeSide struct {
	src   Iterator
	run   *sortRun  // a keyed sort's run, else nil
	store *rowStore // the rows run names
	pos   int
	keys  []int64  // the window's keys, in scratch
	perm  []uint64 // a keyed sort's window of its run
	rows  []Row    // any other input's window: its batch
	i     int      // the position in the window
	done  bool
	last  int64 // the last key read, checked by debug builds
}

func (s *mergeSide) reset(in Iterator, pos, size int) {
	*s = mergeSide{src: in, pos: pos, keys: int64Scratch.get(size), last: math.MinInt64}
	if sort, ok := in.(*Sort); ok && len(sort.runs) == 1 && len(sort.keys) > 0 && sort.keys[0] == (sortKey{pos: pos}) {
		s.run, s.store = &sort.runs[0], &sort.rows
	}
}

// more reports whether the side has a key at i, reading the next window
// when the current one is spent.
func (s *mergeSide) more() (bool, error) {
	for s.i == len(s.keys) && !s.done {
		s.i = 0
		if r := s.run; r != nil {
			lo := r.next
			r.next = min(lo+cap(s.keys), len(r.perm))
			s.perm, s.keys = r.perm[lo:r.next], s.keys[:r.next-lo]
			for i := range s.keys {
				s.keys[i] = r.key(lo + i)
			}
			s.done = lo == r.next
		} else {
			b, ok, err := s.src.NextBatch()
			if err != nil {
				return false, err
			}
			s.done, s.keys = !ok, s.keys[:0]
			if ok {
				for _, row := range b.Rows {
					s.keys = append(s.keys, row[s.pos])
				}
				s.rows = b.Rows
			}
		}
		if debugBuild {
			s.checkKeys()
		}
	}
	return !s.done, nil
}

// checkKeys panics when the window's keys descend, within it or from the
// previous window's last key: the merge relies on ascending keys.
func (s *mergeSide) checkKeys() {
	for _, k := range s.keys {
		if k < s.last {
			panic(fmt.Sprintf("exec: merge join input out of order: key %d after %d", k, s.last))
		}
		s.last = k
	}
}

// skipBelow moves past the window's keys below k.
func (s *mergeSide) skipBelow(k int64) {
	for s.i < len(s.keys) && s.keys[s.i] < k {
		s.i++
	}
}

// group moves past the side's keys equal to k, appending their rows.
func (s *mergeSide) group(k int64, rows []Row) ([]Row, error) {
	for {
		if ok, err := s.more(); !ok || err != nil || s.keys[s.i] != k {
			return rows, err
		}
		if s.run != nil {
			rows = append(rows, s.store.at(uint32(s.perm[s.i])))
		} else {
			rows = append(rows, s.rows[s.i])
		}
		s.i++
	}
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

// Open opens both inputs.
func (m *MergeJoin) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.l.reset(m.Left, m.lpos, m.size)
	m.r.reset(m.Right, m.rpos, m.size)
	m.lgroup, m.rgroup = nil, nil
	m.li, m.ri = 0, 0
	return nil
}

// NextBatch returns the next batch of joined rows.
func (m *MergeJoin) NextBatch() (*Batch, bool, error) {
	m.out.reset(m.size)
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

		// Align the inputs on the next matching key, then buffer both
		// equal-key groups.
		for {
			ok, err := m.l.more()
			if ok {
				ok, err = m.r.more()
			}
			if err != nil {
				return nil, false, err
			}
			if !ok {
				if len(m.out.Rows) == 0 {
					return nil, false, nil
				}
				return &m.out, true, nil
			}
			lk, rk := m.l.keys[m.l.i], m.r.keys[m.r.i]
			if lk == rk {
				break
			}
			m.l.skipBelow(rk)
			m.r.skipBelow(lk)
		}
		key := m.l.keys[m.l.i]
		var err error
		if m.lgroup, err = m.l.group(key, m.lgroup); err != nil {
			return nil, false, err
		}
		if m.rgroup, err = m.r.group(key, m.rgroup); err != nil {
			return nil, false, err
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

// Close gives the key windows back and closes both inputs.
func (m *MergeJoin) Close() error {
	m.out.release()
	int64Scratch.put(m.l.keys)
	int64Scratch.put(m.r.keys)
	m.l, m.r = mergeSide{}, mergeSide{}
	err := m.Left.Close()
	if err2 := m.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// joinTable is a key index from int64 keys to row indices, in one of two
// layouts. The hash joins build it once over a drained build side
// (buildJoinTable), which picks the layout from the keys' observed range:
//
//   - Dense (slots == nil): dense[k-lo] holds the row for key k, offset
//     by one so that 0 is empty, and a last entry past the range is
//     always empty. A probe is a subtraction, a clamp to that last entry
//     and one load: no branch, no hashing, no key compare. A zero
//     joinTable is an empty dense table.
//   - Hashed: a linear-probing table sized to a power of two at no more
//     than half load. A key and its row reference share one 16-byte
//     slot, so a probe touches a single cache line; ref 0 means empty
//     (stored indices are offset by one), so the empty state is all
//     zeroes. A join-built table keeps its keys' range too, and a probe
//     key outside it misses without hashing: a small build probed by a
//     large input mostly misses. Grouping builds this layout
//     incrementally (newJoinTable, grow, lookupOrInsert).
//
// The slots and the dense vector are operator scratch (see scratch.go):
// whoever makes a table releases it.
type joinTable struct {
	slots []joinSlot
	mask  uint64
	shift uint
	dense []int32 // dense layout: row index + 1 per key - lo; 0 = empty
	lo    int64
	top   uint64 // hashed layout: keys lie in [lo, lo+top]
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
	return joinTable{slots: slots, mask: uint64(size - 1), shift: 64 - bits, top: math.MaxUint64}
}

// denseRatio and denseFloor bound the dense layout: a build takes it when
// its key range spans fewer than denseRatio values per expected key, or
// its dense vector needs at most denseFloor entries (16 KiB, pooled, in
// L1). Below 8 the dense vector (4 bytes per value of the range) is never
// larger than the hashed table (16-byte slots, at least two per key); the
// floor serves small selections' builds (DESIGN §4i).
const (
	denseRatio = 8
	denseFloor = 4096
)

// joinKeys names a drained build side's n join keys where they already
// lie, without copying them: key i is col[i], or col[sel[i]] when sel is
// set.
type joinKeys struct {
	col []int64
	sel []int32
	n   int
}

func (ks *joinKeys) at(i int) int64 {
	if ks.sel != nil {
		return ks.col[ks.sel[i]]
	}
	return ks.col[i]
}

// buildJoinTable indexes a drained build side in one pass over its keys
// and fills chain[i] with the previous build row sharing row i's key (-1
// ends a chain), so every chain runs newest row first. keyHint estimates
// the distinct keys (0 = unknown). The layout is dense when the keys'
// range is small next to the keys expected, hashed otherwise.
func buildJoinTable(keys joinKeys, chain []int32, keyHint int) joinTable {
	n := keys.n
	if n == 0 {
		return joinTable{}
	}
	lo, hi := keys.at(0), keys.at(0)
	for i := 1; i < n; i++ {
		k := keys.at(i)
		lo, hi = min(lo, k), max(hi, k)
	}
	expect := n
	if keyHint > 0 && keyHint < n {
		expect = keyHint
	}
	// The range in uint64 cannot overflow, whatever lo and hi are.
	if span := uint64(hi) - uint64(lo); span < denseRatio*uint64(expect) || span <= denseFloor-2 {
		return denseJoinTable(keys, chain, lo, hi)
	}
	return hashedJoinTable(keys, chain, expect, lo, hi)
}

// denseJoinTable builds the dense layout over keys within [lo, hi].
func denseJoinTable(keys joinKeys, chain []int32, lo, hi int64) joinTable {
	span := int(uint64(hi)-uint64(lo)) + 2 // the range and an empty last entry
	dense := int32Scratch.get(span)[:span]
	clear(dense)
	for i := range keys.n {
		d := &dense[keys.at(i)-lo]
		chain[i] = *d - 1
		*d = int32(i) + 1
	}
	return joinTable{dense: dense, lo: lo}
}

// hashedJoinTable builds the hashed layout over keys within [lo, hi],
// sized for capacity keys and grown if there are more.
func hashedJoinTable(keys joinKeys, chain []int32, capacity int, lo, hi int64) joinTable {
	t := newJoinTable(capacity)
	t.lo, t.top = lo, uint64(hi)-uint64(lo)
	distinct := 0
	for i := range keys.n {
		t.grow(distinct + 1)
		prev := t.put(keys.at(i), int32(i))
		if prev < 0 {
			distinct++
		}
		chain[i] = prev
	}
	return t
}

// release gives the slots or the dense vector back to the scratch pool;
// the table is empty afterwards.
func (t *joinTable) release() {
	slotScratch.put(t.slots)
	int32Scratch.put(t.dense)
	*t = joinTable{}
}

// hash mixes the key multiplicatively and keeps the high bits, which
// carry the most entropy, so consecutive join values spread across slots
// (fibonacci hashing).
func (t *joinTable) hash(k int64) uint64 {
	return (uint64(k) * 0x9e3779b97f4a7c15) >> t.shift
}

// probeHits looks up the probe rows' keys — col[i] for every i, or
// col[s] for every s in sel — and writes only the hits: hit k of n is
// probe row rows[k], whose key the newest build row heads[k] holds. rows
// and heads need room for every probe row. The loops store
// unconditionally and advance by the hit bit (keepHit), so no hit rate
// mispredicts; the layout is tested once per vector.
func (t *joinTable) probeHits(col []int64, sel []int32, rows, heads []int32) (n int) {
	dense, lo := t.dense, uint64(t.lo)
	switch {
	case t.slots == nil && t.dense == nil:
	case t.slots == nil && sel == nil:
		for i, k := range col {
			n = keepHit(rows, heads, n, int32(i), denseHead(dense, lo, k))
		}
	case t.slots == nil:
		for _, s := range sel {
			n = keepHit(rows, heads, n, s, denseHead(dense, lo, col[s]))
		}
	case sel == nil:
		for i, k := range col {
			n = keepHit(rows, heads, n, int32(i), t.getHashed(k))
		}
	default:
		for _, s := range sel {
			n = keepHit(rows, heads, n, s, t.getHashed(col[s]))
		}
	}
	return n
}

// denseHead looks k up in a dense layout's vector whose keys start at
// lo: an offset past the vector's last entry, which is always empty, is
// clamped to it without a branch.
func denseHead(dense []int32, lo uint64, k int64) int32 {
	d, last := uint64(k)-lo, uint64(len(dense)-1)
	_, out := bits.Sub64(last, d, 0) // 1 when d > last
	return dense[d^(d^last)&-out] - 1
}

// keepHit stores probe row r and chain head h at n and returns n, plus
// one when h is a row (not -1), without a branch.
func keepHit(rows, heads []int32, n int, r, h int32) int {
	rows[n], heads[n] = r, h
	return n + int(uint32(^h)>>31)
}

// getHashed returns the newest row index stored for k in the hashed
// layout, or -1.
func (t *joinTable) getHashed(k int64) int32 {
	if uint64(k)-uint64(t.lo) > t.top {
		return -1
	}
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
	n.lc.reset(n.Left, nil)
	n.inner = n.inner[:0]
	n.lrow, n.ri, n.ldone = nil, 0, false
	for {
		b, ok, err := n.Right.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		n.inner = append(reserveScratch(&rowScratch, n.inner, len(b.Rows)), b.Rows...)
	}
}

// NextBatch returns the next batch of joined rows.
func (n *NLJoin) NextBatch() (*Batch, bool, error) {
	n.out.reset(n.size)
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

// Close releases the inner buffer and closes both inputs.
func (n *NLJoin) Close() error {
	n.out.release()
	rowScratch.put(n.inner)
	n.inner = nil
	err := n.Left.Close()
	if err2 := n.Right.Close(); err == nil {
		err = err2
	}
	return err
}
