package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/relopt"
)

// sortKey is one column of a sort order, resolved to a row position.
type sortKey struct {
	pos  int
	desc bool
}

// ascKeys is the ascending sort order over the given row positions.
func ascKeys(pos []int) []sortKey {
	keys := make([]sortKey, len(pos))
	for i, p := range pos {
		keys[i] = sortKey{pos: p}
	}
	return keys
}

// cmpKeys compares two rows on a sort order: negative when a sorts
// first, zero when the rows tie on every key. It is the package's one
// row comparison: the sort kernel, the order-preserving merges (sort
// runs, GatherOrdered, the ordered exchange port), the merge set
// operations and SortedBy all use it.
func cmpKeys(a, b Row, keys []sortKey) int {
	for _, k := range keys {
		av, bv := a[k.pos], b[k.pos]
		if av == bv {
			continue
		}
		if (av < bv) != k.desc {
			return -1
		}
		return 1
	}
	return 0
}

// checkOrder panics when row b sorts before row a on keys; a nil a
// passes. Debug builds call it where an operator reads an order it
// relies on (merge inputs, sorted grouping runs, an ordered gather's
// partitions) and on a run's result (RunOpts), so a kernel that breaks
// an order the plan promised fails where the order is consumed.
func checkOrder(what string, a, b Row, keys []sortKey) {
	if a != nil && cmpKeys(a, b, keys) > 0 {
		panic(fmt.Sprintf("exec: %s out of order on %v: %v before %v", what, keys, a, b))
	}
}

// The sort kernel. Sorting []Row directly moves 24-byte headers and
// dereferences two of them per comparison; the kernel instead extracts
// the first sort key of every row into a dense vector, once, and orders
// that. When the observed keys span less than 2^32 — join and grouping
// columns, dense identifiers — an element packs (key - min) into its
// high half and the row's input ordinal into its low half, so that plain
// uint64 order is (key, arrival) order: a stable LSD radix over only the
// bits the span occupies sorts it in a few linear passes. A wider span
// falls back to a comparison sort of (key, ordinal) entries with the
// ordinal as the tiebreak, which is the same total order. Further sort
// keys are resolved afterwards by comparing rows inside each range of
// equal first keys, so a single-key sort reads each row once.

// radixBits bounds the digit width of one radix pass: 2^11 counters fit
// the L1 cache beside the streams being read and written.
const radixBits = 11

// sortEntry is one row of the wide-span fallback.
type sortEntry struct {
	key int64
	ord uint32
}

// sortPerm returns the stable sort permutation of rows [lo,hi) of the
// store on keys, as a run: the low 32 bits of perm[i] hold the store
// index of the i-th row in sort order. Rows that tie on every key keep
// their input order. The run also knows the i-th row's first key,
// normalised (see key): the kernel's packed high half plus base, or
// wide[i] from the wide-span fallback. The store must hold fewer than
// 2^32 rows. perm and wide are scratch: the caller gives them back.
func sortPerm(st *rowStore, lo, hi int, keys []sortKey) sortRun {
	perm := uint64Scratch.get(hi - lo)[:hi-lo]
	if len(keys) == 0 || len(perm) == 0 {
		for i := range perm {
			perm[i] = uint64(lo + i)
		}
		return sortRun{perm: perm}
	}
	// One pass over the rows: the first key, normalised so that ascending
	// int64 order is the sort order (^v reverses it exactly; -v would
	// overflow), and its observed range.
	k0 := keys[0]
	kmin, kmax := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range perm {
		v := st.at(uint32(lo + i))[k0.pos]
		if k0.desc {
			v = ^v
		}
		kmin, kmax = min(kmin, v), max(kmax, v)
		perm[i] = uint64(v)
	}
	run := sortRun{perm: perm, base: kmin}
	if span := uint64(kmax) - uint64(kmin); span < 1<<32 {
		for i, v := range perm {
			perm[i] = (v-uint64(kmin))<<32 | uint64(lo+i)
		}
		radixSortHigh(perm, bits.Len64(span))
	} else {
		ents := make([]sortEntry, len(perm))
		for i, v := range perm {
			ents[i] = sortEntry{key: int64(v), ord: uint32(lo + i)}
		}
		slices.SortFunc(ents, func(a, b sortEntry) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.ord, b.ord)
		})
		run.wide = int64Scratch.get(len(ents))[:len(ents)]
		for i, e := range ents {
			perm[i], run.wide[i] = uint64(e.ord), e.key
		}
	}
	if len(keys) == 1 {
		return run
	}
	// Resolve the remaining keys inside each range of equal first keys.
	// Within a range the elements differ only in their ordinals, so
	// comparing those last keeps ties in input order.
	rest := keys[1:]
	byRest := func(a, b uint64) int {
		if c := cmpKeys(st.at(uint32(a)), st.at(uint32(b)), rest); c != 0 {
			return c
		}
		return cmp.Compare(uint32(a), uint32(b))
	}
	for i := 0; i < len(perm); {
		k := run.key(i)
		j := i + 1
		for j < len(perm) && run.key(j) == k {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(perm[i:j], byRest)
		}
		i = j
	}
	return run
}

// radixSortHigh orders v by bits [32, 32+width) with a stable LSD radix
// sort, digits of equal width and at most radixBits each; elements that
// agree on those bits keep their order.
func radixSortHigh(v []uint64, width int) {
	if width == 0 {
		return
	}
	passes := (width + radixBits - 1) / radixBits
	digit := (width + passes - 1) / passes
	mask := uint64(1)<<digit - 1
	tmp := uint64Scratch.get(len(v))[:len(v)]
	defer uint64Scratch.put(tmp)
	src, dst := v, tmp
	for p := 0; p < passes; p++ {
		shift := 32 + p*digit
		var count [1 << radixBits]int
		for _, x := range src {
			count[x>>shift&mask]++
		}
		sum := 0
		for d, c := range count[:mask+1] {
			count[d] = sum
			sum += c
		}
		for _, x := range src {
			d := x >> shift & mask
			dst[count[d]] = x
			count[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(v, src)
	}
}

// sortRows puts the rows in stable sort order on keys, in place: it
// follows each cycle of the sort permutation, moving one header at a
// time, and marks each position it fills by making the permutation's
// entry there a fixed point, so no second header vector is needed.
func sortRows(rows []Row, keys []sortKey) {
	st := flatRows(rows)
	run := sortPerm(&st, 0, len(rows), keys)
	perm := run.perm
	for i := range perm {
		first := rows[i]
		k := uint32(i)
		for j := uint32(perm[k]); j != uint32(i); j = uint32(perm[k]) {
			rows[k] = rows[j]
			perm[k] = uint64(k)
			k = j
		}
		rows[k] = first
		perm[k] = uint64(k)
	}
	uint64Scratch.put(run.perm)
	int64Scratch.put(run.wide)
}

// Sort is the sort enforcer's runtime. It drains its input once,
// keeping only the row headers (the data behind them is stable; see the
// package lifetime contract), orders them with the sort kernel, and
// emits the rows through the resulting permutation a batch of headers at
// a time: no row value is copied or moved. An in-memory input is one
// sorted run. The optimizer prices an external sort with a single-level
// merge; setting RunRows reproduces that structure — bounded runs sorted
// one at a time, then merged in one pass through a binary heap.
type Sort struct {
	// In is the input stream.
	In Iterator
	// RunRows bounds the rows per run (the sort's work space); zero
	// means the whole input is one run.
	RunRows int

	keys []sortKey
	size int
	rows rowStore
	runs []sortRun
	heap []int // run indexes, a min-heap on (head row, run index)
	out  Batch
}

// sortRun is one sorted run: the sort permutation of a window of the
// drained rows, its first keys (sortPerm) and the merge's position in it.
type sortRun struct {
	perm []uint64
	base int64
	wide []int64
	next int
}

// key returns the normalised first sort key of the run's i-th row.
func (r *sortRun) key(i int) int64 {
	if r.wide != nil {
		return r.wide[i]
	}
	return r.base + int64(r.perm[i]>>32)
}

// NewSort resolves the sort order against the input schema.
func NewSort(in Iterator, schema *Schema, order []relopt.OrderCol) *Sort {
	s := &Sort{In: in, size: DefaultBatchSize}
	for _, oc := range order {
		s.keys = append(s.keys, sortKey{pos: schema.Pos(oc.Col), desc: oc.Desc})
	}
	return s
}

// SetBatchSize sets the rows per batch.
func (s *Sort) SetBatchSize(n int) { s.size = sizeOrDefault(n) }

// Open drains the input and sorts it.
func (s *Sort) Open() error {
	if err := s.In.Open(); err != nil {
		return err
	}
	s.rows = newRowStore()
	for {
		b, ok, err := s.In.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows.add(b.Rows)
	}
	limit := s.RunRows
	if limit <= 0 {
		limit = max(s.rows.n, 1)
	}
	s.runs, s.heap = s.runs[:0], s.heap[:0]
	for lo := 0; lo < s.rows.n; lo += limit {
		s.heap = append(s.heap, len(s.runs))
		s.runs = append(s.runs, sortPerm(&s.rows, lo, min(lo+limit, s.rows.n), s.keys))
	}
	// Runs were formed in input order, so the heap array starts ordered
	// by run index only; establish the heap property on the head rows.
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	return nil
}

// head returns the next row of run i.
func (s *Sort) head(i int) Row {
	r := &s.runs[i]
	return s.rows.at(uint32(r.perm[r.next]))
}

// runBefore orders two runs by their head rows; equal heads go to the
// earlier run, which holds the earlier input rows, so the merge is
// stable.
func (s *Sort) runBefore(a, b int) bool {
	c := cmpKeys(s.head(a), s.head(b), s.keys)
	return c < 0 || c == 0 && a < b
}

// siftDown restores the heap property below position i.
func (s *Sort) siftDown(i int) {
	h := s.heap
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if child+1 < len(h) && s.runBefore(h[child+1], h[child]) {
			child++
		}
		if !s.runBefore(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// NextBatch returns the next batch of row headers in sort order.
func (s *Sort) NextBatch() (*Batch, bool, error) {
	s.out.reset(s.size)
	if len(s.runs) == 1 {
		r := &s.runs[0]
		end := min(r.next+s.size, len(r.perm))
		for _, p := range r.perm[r.next:end] {
			s.out.add(s.rows.at(uint32(p)))
		}
		r.next = end
	} else {
		for len(s.heap) > 0 && len(s.out.Rows) < s.size {
			top := s.heap[0]
			s.out.add(s.head(top))
			r := &s.runs[top]
			r.next++
			if r.next == len(r.perm) {
				last := len(s.heap) - 1
				s.heap[0] = s.heap[last]
				s.heap = s.heap[:last]
			}
			s.siftDown(0)
		}
	}
	if len(s.out.Rows) == 0 {
		return nil, false, nil
	}
	return &s.out, true, nil
}

// Close gives the drained headers and the permutations back and closes
// the input.
func (s *Sort) Close() error {
	s.out.release()
	s.rows.release()
	for _, r := range s.runs {
		uint64Scratch.put(r.perm)
		int64Scratch.put(r.wide)
	}
	s.runs, s.heap = nil, nil
	return s.In.Close()
}
