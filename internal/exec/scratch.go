package exec

import (
	"math"
	"math/bits"
	"sync"
)

// Operator scratch. What an operator builds in Open and drops in Close —
// hash-table slots, build vectors, sort permutations — is never visible
// to its consumers: the batch contracts promise only that row data stays
// valid, and a columnar batch only until the producer's next call or
// Close. So Close hands that state to a pool and the next Open, of any
// operator in any query, takes it from there. A statement then allocates
// what it returns (row slabs and headers) and little else, which is what
// bounds the garbage collector's work, and the heap it overshoots by,
// when statements run back to back.
//
// The rules for a user: take a vector in Open, give it back in Close and
// nil the field, so that a second Close gives nothing back twice; never
// give back memory a consumer may still read (row slabs, a Batch's
// headers). A vector that grew past its pooled capacity by append is a
// new allocation and is given back like any other; the outgrown one is
// left to the collector.

// scratchPool recycles vectors of one element type, in power-of-two
// capacity classes so that a request is served by any vector of its
// class.
type scratchPool[T any] struct {
	classes [32]sync.Pool
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
	if v, _ := p.classes[c].Get().(*[]T); v != nil {
		return *v
	}
	return make([]T, 0, 1<<c)
}

// put gives a vector back. Vectors whose capacity is not a whole class
// (grown by append) go to the class they can still serve.
func (p *scratchPool[T]) put(v []T) {
	if cap(v) == 0 {
		return
	}
	c := bits.Len(uint(cap(v))) - 1
	if c >= len(p.classes) {
		return
	}
	v = v[:0]
	p.classes[c].Put(&v)
}

var (
	int64Scratch  scratchPool[int64]
	int32Scratch  scratchPool[int32]
	uint64Scratch scratchPool[uint64]
	slotScratch   scratchPool[joinSlot]
	rowScratch    scratchPool[Row]
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

// release gives a chunked store's chunks back to the scratch pool,
// cleared: a pooled header would keep the row storage it points at
// alive.
func (st *rowStore) release() {
	for _, c := range st.chunks {
		clear(c)
		rowScratch.put(c)
	}
	*st = rowStore{}
}
