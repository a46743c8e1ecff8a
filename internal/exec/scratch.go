package exec

import (
	"math"
	"math/bits"
	"sync"
)

// Operator scratch. What an operator builds in Open and drops in Close —
// hash-table slots, build vectors, sort permutations, the header vectors
// of its output batches — is dead once it is closed: the batch contracts
// promise only that row data stays valid, and a batch or a columnar
// batch only until the producer's next call or Close. So Close hands
// that state to a pool and the next Open, of any operator in any query,
// takes it from there. A statement then allocates what it returns (row
// slabs, arenas, the result's header vector) and little else, which is
// what bounds the garbage collector's work, and the heap it overshoots
// by, when statements run back to back.
//
// The rules for a user: take a vector in Open (or on first use), give it
// back in Close and nil the field, so that a second Close gives nothing
// back twice. Never give back row data — arenas, row slabs, a table's
// vectors — and never a vector the operator did not take: a view
// batch's Rows are someone else's storage. A vector that grew past its
// pooled capacity by append is a new allocation and is given back like
// any other; the outgrown one is left to the collector.
//
// Built with the volcano_debug tag, put poisons what it is given and
// keeps none of it, and get poisons the spare capacity it hands out: a
// read of a vector after it was given back, or of capacity its user
// never wrote, meets the poison (an out-of-range index, a row of width
// zero) instead of another operator's data.

// scratchPool recycles vectors of one element type, in power-of-two
// capacity classes so that a request is served by any vector of its
// class.
type scratchPool[T any] struct {
	classes [32]sync.Pool
	// boxes recycles the classes' *[]T, so a warm put allocates nothing.
	boxes sync.Pool
	// pointers marks element types that point at row storage: put clears
	// them, so that a pooled vector keeps nothing alive.
	pointers bool
	// poison is what a debug build fills vectors with (see above).
	poison T
}

// get returns a vector of length zero and capacity at least n. Its spare
// capacity holds whatever the last user left there.
func (p *scratchPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if c >= len(p.classes) {
		return make([]T, 0, n)
	}
	if debugBuild {
		return p.poisoned(make([]T, 1<<c))[:0]
	}
	if box, _ := p.classes[c].Get().(*[]T); box != nil {
		v := *box
		*box = nil
		p.boxes.Put(box)
		return v
	}
	return make([]T, 0, 1<<c)
}

// growScratch returns v resliced to length n, or, when its capacity is
// short, a pooled vector of length n in its place (v goes back).
func growScratch[T any](p *scratchPool[T], v []T, n int) []T {
	if cap(v) < n {
		p.put(v)
		v = p.get(n)
	}
	return v[:n]
}

// reserveScratch returns v with room for n more elements: when its
// capacity is short, its elements move to a pooled vector of at least
// twice the capacity and v goes back, so a pooled vector grows without
// leaving garbage.
func reserveScratch[T any](p *scratchPool[T], v []T, n int) []T {
	if cap(v)-len(v) >= n {
		return v
	}
	w := append(p.get(max(len(v)+n, 2*cap(v))), v...)
	p.put(v)
	return w
}

// put gives a vector back, cleared if its elements hold pointers.
// Vectors whose capacity is not a whole class (grown by append) go to
// the class they can still serve.
func (p *scratchPool[T]) put(v []T) {
	if cap(v) == 0 {
		return
	}
	if debugBuild {
		p.poisoned(v[:cap(v)])
		return
	}
	if p.pointers {
		clear(v)
	}
	c := bits.Len(uint(cap(v))) - 1
	if c >= len(p.classes) {
		return
	}
	box, ok := p.boxes.Get().(*[]T)
	if !ok {
		box = new([]T)
	}
	*box = v[:0]
	p.classes[c].Put(box)
}

// poisoned fills v with the pool's poison and returns it.
func (p *scratchPool[T]) poisoned(v []T) []T {
	for i := range v {
		v[i] = p.poison
	}
	return v
}

// The pools, and the poison of each: an index or a permutation entry
// out of range of any vector, a value no generated table holds, a row
// (or column window) of width zero.
var (
	int64Scratch  = scratchPool[int64]{poison: -0x5afe_dead_5afe_dead}
	int32Scratch  = scratchPool[int32]{poison: math.MinInt32}
	uint64Scratch = scratchPool[uint64]{poison: math.MaxUint64}
	slotScratch   = scratchPool[joinSlot]{poison: joinSlot{key: -0x5afe_dead_5afe_dead, ref: math.MinInt32}}
	rowScratch    = scratchPool[Row]{pointers: true, poison: Row{}}
	colScratch    = scratchPool[[]int64]{pointers: true, poison: []int64{}}
)

// rowChunkRows is the chunk size of a chunked rowStore, 1<<rowChunkShift.
const (
	rowChunkShift = 12
	rowChunkRows  = 1 << rowChunkShift
)

// rowStore is an append-only vector of row headers held in equal chunks
// of scratch, for operators that drain an input of unknown size (Sort,
// Collect): growing neither re-copies headers nor over-allocates from a
// cardinality estimate, and the chunks go back to the pool afterwards. A
// flat []Row can be viewed as a one-chunk store, which owns nothing.
type rowStore struct {
	chunks [][]Row
	shift  uint   // log2 of the chunk size
	mask   uint32 // chunk size - 1
	n      int
}

// newRowStore returns an empty chunked store.
func newRowStore() rowStore { return rowStore{shift: rowChunkShift, mask: rowChunkRows - 1} }

// flatRows views a header slice as a row store. The view is read-only:
// no add, no release.
func flatRows(rows []Row) rowStore {
	return rowStore{chunks: [][]Row{rows}, shift: 32, mask: math.MaxUint32, n: len(rows)}
}

// at returns row i.
func (st *rowStore) at(i uint32) Row { return st.chunks[i>>st.shift][i&st.mask] }

// add appends a batch of headers, filling the last chunk before starting
// the next.
func (st *rowStore) add(rows []Row) {
	st.n += len(rows)
	for len(rows) > 0 {
		last := len(st.chunks) - 1
		if last < 0 || len(st.chunks[last]) == rowChunkRows {
			st.chunks = append(st.chunks, rowScratch.get(rowChunkRows))
			last++
		}
		k := min(len(rows), rowChunkRows-len(st.chunks[last]))
		st.chunks[last] = append(st.chunks[last], rows[:k]...)
		rows = rows[k:]
	}
}

// release gives a chunked store's chunks back to the scratch pool.
func (st *rowStore) release() {
	for _, c := range st.chunks {
		rowScratch.put(c)
	}
	*st = rowStore{}
}
