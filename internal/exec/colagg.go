package exec

import (
	"fmt"
	"math"

	"repro/internal/rel"
)

// ColHashGroupBy groups an unordered columnar stream. The hot single
// grouping column case keys an open-addressed int64 table (the same
// joinTable the hash join uses) instead of a Go map, resolves each
// input batch to a group-index vector, and then runs one flat
// accumulator loop per aggregate over dense typed slices instead of a
// per-row update per aggregate. Groups are emitted once the input is
// drained, in a deterministic order: ascending on the group values.
type ColHashGroupBy struct {
	// In is the input stream.
	In Iterator
	// SizeHint pre-sizes the group table; the plan builder sets it from
	// the optimizer's output-cardinality estimate.
	SizeHint int

	groupPos []int
	aggs     []rel.Agg
	aggPos   []int
	size     int

	in   ColBatchIterator
	out  []Row
	next int
	view Batch
}

// NewColHashGroupBy resolves grouping columns and aggregate arguments
// against the input schema.
func NewColHashGroupBy(in Iterator, schema *Schema, groupCols []rel.ColID, aggs []rel.Agg) *ColHashGroupBy {
	g := &ColHashGroupBy{In: in, in: asCols(in), aggs: aggs, aggPos: aggPositions(aggs, schema), size: DefaultBatchSize}
	for _, c := range groupCols {
		g.groupPos = append(g.groupPos, schema.Pos(c))
	}
	return g
}

// SetBatchSize sets the rows per batch.
func (g *ColHashGroupBy) SetBatchSize(n int) { g.size = sizeOrDefault(n) }

// accInit returns the accumulator identity for an aggregate.
func accInit(fn rel.AggFn) int64 {
	switch fn {
	case rel.AggMin:
		return math.MaxInt64
	case rel.AggMax:
		return math.MinInt64
	}
	return 0
}

// Open drains the input into per-group accumulators and materializes the
// sorted groups.
func (g *ColHashGroupBy) Open() error {
	if err := g.In.Open(); err != nil {
		return err
	}
	in := g.in

	// Per-group state, struct-of-arrays: group keys, row counts, and one
	// accumulator vector per aggregate. All of it is scratch, dead once
	// the groups are materialized below.
	gw := len(g.groupPos)
	keys := int64Scratch.get(g.SizeHint * gw) // gw key values per group
	counts := int64Scratch.get(g.SizeHint)
	accs := make([][]int64, len(g.aggs))
	for i := range accs {
		accs[i] = int64Scratch.get(g.SizeHint)
	}
	ngroups := 0

	single := gw == 1
	var table joinTable
	var idx map[string]int32
	var keybuf Row
	var kb []byte // keybuf's map key, reused: a lookup allocates nothing
	if single {
		table = newJoinTable(g.SizeHint)
	} else {
		idx = make(map[string]int32, g.SizeHint)
		keybuf = make(Row, gw)
	}

	var gidx []int32
	defer func() {
		int64Scratch.put(keys)
		int64Scratch.put(counts)
		for _, acc := range accs {
			int64Scratch.put(acc)
		}
		int32Scratch.put(gidx)
		table.release()
	}()
	for {
		cb, ok, err := in.NextColBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := cb.Len()
		if cap(gidx) < n {
			int32Scratch.put(gidx)
			gidx = int32Scratch.get(n)
		}
		gidx = gidx[:n]

		// Resolve each input row to its group index.
		if single {
			keycol := cb.Cols[g.groupPos[0]]
			// One grow for the batch's worst case, so the insert loop
			// never rehashes mid-batch.
			table.grow(ngroups + n)
			if cb.Sel == nil {
				keycol = keycol[:n]
				for i, k := range keycol {
					id := table.lookupOrInsert(k, int32(ngroups))
					if id < 0 {
						id = int32(ngroups)
						keys = append(keys, k)
						ngroups++
					}
					gidx[i] = id
				}
			} else {
				for i, s := range cb.Sel {
					k := keycol[s]
					id := table.lookupOrInsert(k, int32(ngroups))
					if id < 0 {
						id = int32(ngroups)
						keys = append(keys, k)
						ngroups++
					}
					gidx[i] = id
				}
			}
		} else {
			for i := 0; i < n; i++ {
				r := i
				if cb.Sel != nil {
					r = int(cb.Sel[i])
				}
				for j, p := range g.groupPos {
					keybuf[j] = cb.Cols[p][r]
				}
				kb = appendRowKey(kb[:0], keybuf)
				id, ok := idx[string(kb)]
				if !ok {
					id = int32(ngroups)
					keys = append(keys, keybuf...)
					idx[string(kb)] = id
					ngroups++
				}
				gidx[i] = id
			}
		}

		// Extend the accumulator vectors for the batch's new groups.
		for len(counts) < ngroups {
			counts = append(counts, 0)
		}
		for a := range accs {
			init := accInit(g.aggs[a].Fn)
			for len(accs[a]) < ngroups {
				accs[a] = append(accs[a], init)
			}
		}

		// One flat loop per accumulator over the group-index vector.
		for _, gi := range gidx {
			counts[gi]++
		}
		for a := range accs {
			pos := g.aggPos[a]
			if pos < 0 {
				continue // COUNT reads the shared counts
			}
			col := cb.Cols[pos]
			vals := accs[a]
			switch g.aggs[a].Fn {
			case rel.AggSum, rel.AggCount:
				if cb.Sel == nil {
					col := col[:n]
					for i, v := range col {
						vals[gidx[i]] += v
					}
				} else {
					for i, s := range cb.Sel {
						vals[gidx[i]] += col[s]
					}
				}
			case rel.AggMin:
				if cb.Sel == nil {
					col := col[:n]
					for i, v := range col {
						if v < vals[gidx[i]] {
							vals[gidx[i]] = v
						}
					}
				} else {
					for i, s := range cb.Sel {
						if v := col[s]; v < vals[gidx[i]] {
							vals[gidx[i]] = v
						}
					}
				}
			case rel.AggMax:
				if cb.Sel == nil {
					col := col[:n]
					for i, v := range col {
						if v > vals[gidx[i]] {
							vals[gidx[i]] = v
						}
					}
				} else {
					for i, s := range cb.Sel {
						if v := col[s]; v > vals[gidx[i]] {
							vals[gidx[i]] = v
						}
					}
				}
			}
		}
	}

	// Materialize the groups: key values then aggregate values, carved
	// from one slab, their headers in a pooled vector sorted in place
	// into group order.
	w := gw + len(g.aggs)
	slab := make([]int64, ngroups*w)
	out := rowScratch.get(ngroups)[:ngroups]
	for gi := 0; gi < ngroups; gi++ {
		row := Row(slab[gi*w : (gi+1)*w : (gi+1)*w])
		copy(row, keys[gi*gw:(gi+1)*gw])
		for a := range g.aggs {
			if g.aggs[a].Fn == rel.AggCount {
				row[gw+a] = counts[gi]
			} else {
				row[gw+a] = accs[a][gi]
			}
		}
		out[gi] = row
	}
	sortRows(out, groupOrder(gw))
	g.out = out
	g.next = 0
	return nil
}

// NextBatch returns the next batch of groups as a view over the
// materialized output.
func (g *ColHashGroupBy) NextBatch() (*Batch, bool, error) {
	if g.next >= len(g.out) {
		return nil, false, nil
	}
	end := g.next + g.size
	if end > len(g.out) {
		end = len(g.out)
	}
	g.view.Rows = g.out[g.next:end]
	g.next = end
	return &g.view, true, nil
}

// Close gives the groups' header vector back and closes the input
// through its columnar adapter.
func (g *ColHashGroupBy) Close() error {
	rowScratch.put(g.out)
	g.out = nil
	return g.in.Close()
}

// ColSortGroupBy groups a columnar stream already sorted on the grouping
// columns: runs of equal keys are detected on the grouping vectors and
// each aggregate folds a whole run span with one tight loop over its
// argument column, instead of one aggState update per row.
type ColSortGroupBy struct {
	// In is the input stream, sorted on the grouping columns.
	In Iterator

	groupPos []int
	aggs     []rel.Agg
	aggPos   []int
	size     int

	in      ColBatchIterator
	started bool
	done    bool
	key     []int64 // current group's key values
	count   int64
	accs    []int64 // current group's accumulators, one per aggregate
	out     Batch
}

// NewColSortGroupBy resolves grouping columns and aggregate arguments
// against the input schema.
func NewColSortGroupBy(in Iterator, schema *Schema, groupCols []rel.ColID, aggs []rel.Agg) *ColSortGroupBy {
	g := &ColSortGroupBy{In: in, in: asCols(in), aggs: aggs, aggPos: aggPositions(aggs, schema), size: DefaultBatchSize}
	for _, c := range groupCols {
		g.groupPos = append(g.groupPos, schema.Pos(c))
	}
	g.key = make([]int64, len(g.groupPos))
	g.accs = make([]int64, len(aggs))
	return g
}

// SetBatchSize sets the rows per batch.
func (g *ColSortGroupBy) SetBatchSize(n int) { g.size = sizeOrDefault(n) }

// Open opens the input.
func (g *ColSortGroupBy) Open() error {
	g.started, g.done, g.count = false, false, 0
	return g.In.Open()
}

// start begins a new group keyed by row r of the batch. Debug builds
// check that its key follows the last group's: the runs rely on input
// sorted ascending on the grouping columns.
func (g *ColSortGroupBy) start(cb *ColBatch, r int) {
	if debugBuild && g.started {
		for j, p := range g.groupPos {
			if v := cb.Cols[p][r]; v != g.key[j] {
				if v < g.key[j] {
					panic(fmt.Sprintf("exec: sorted grouping input out of order: key %d at %d after group %v", v, j, g.key))
				}
				break
			}
		}
	}
	for j, p := range g.groupPos {
		g.key[j] = cb.Cols[p][r]
	}
	g.count = 0
	for a := range g.accs {
		g.accs[a] = accInit(g.aggs[a].Fn)
	}
	g.started = true
}

// keyAt reports whether row r of the batch matches the current key.
func (g *ColSortGroupBy) keyAt(cb *ColBatch, r int) bool {
	for j, p := range g.groupPos {
		if cb.Cols[p][r] != g.key[j] {
			return false
		}
	}
	return true
}

// foldSpan folds the dense row span [lo,hi) of the batch into the
// current group.
func (g *ColSortGroupBy) foldSpan(cb *ColBatch, lo, hi int) {
	g.count += int64(hi - lo)
	for a := range g.accs {
		pos := g.aggPos[a]
		if pos < 0 {
			continue
		}
		span := cb.Cols[pos][lo:hi]
		acc := g.accs[a]
		switch g.aggs[a].Fn {
		case rel.AggSum, rel.AggCount:
			for _, v := range span {
				acc += v
			}
		case rel.AggMin:
			for _, v := range span {
				if v < acc {
					acc = v
				}
			}
		case rel.AggMax:
			for _, v := range span {
				if v > acc {
					acc = v
				}
			}
		}
		g.accs[a] = acc
	}
}

// foldRow folds one selected row into the current group.
func (g *ColSortGroupBy) foldRow(cb *ColBatch, r int) {
	g.count++
	for a := range g.accs {
		pos := g.aggPos[a]
		if pos < 0 {
			continue
		}
		v := cb.Cols[pos][r]
		switch g.aggs[a].Fn {
		case rel.AggSum, rel.AggCount:
			g.accs[a] += v
		case rel.AggMin:
			if v < g.accs[a] {
				g.accs[a] = v
			}
		case rel.AggMax:
			if v > g.accs[a] {
				g.accs[a] = v
			}
		}
	}
}

// emit appends the current group's output row.
func (g *ColSortGroupBy) emit() {
	w := len(g.groupPos) + len(g.aggs)
	out := g.out.alloc(w, w*g.size)
	copy(out, g.key)
	for a := range g.aggs {
		if g.aggs[a].Fn == rel.AggCount {
			out[len(g.groupPos)+a] = g.count
		} else {
			out[len(g.groupPos)+a] = g.accs[a]
		}
	}
}

// fold processes one input batch, emitting completed groups.
func (g *ColSortGroupBy) fold(cb *ColBatch) {
	if cb.Sel != nil {
		for _, s := range cb.Sel {
			r := int(s)
			if !g.started {
				g.start(cb, r)
			} else if !g.keyAt(cb, r) {
				g.emit()
				g.start(cb, r)
			}
			g.foldRow(cb, r)
		}
		return
	}
	n := cb.N
	if len(g.groupPos) == 1 {
		// Single grouping column: run detection is one compare loop over
		// the key vector.
		kc := cb.Cols[g.groupPos[0]][:n]
		i := 0
		for i < n {
			k := kc[i]
			j := i + 1
			for j < n && kc[j] == k {
				j++
			}
			if !g.started {
				g.start(cb, i)
			} else if k != g.key[0] {
				g.emit()
				g.start(cb, i)
			}
			g.foldSpan(cb, i, j)
			i = j
		}
		return
	}
	i := 0
	for i < n {
		j := i + 1
		for j < n && g.rowsEqual(cb, j, i) {
			j++
		}
		if !g.started {
			g.start(cb, i)
		} else if !g.keyAt(cb, i) {
			g.emit()
			g.start(cb, i)
		}
		g.foldSpan(cb, i, j)
		i = j
	}
}

// rowsEqual reports whether rows a and b of the batch agree on every
// grouping column.
func (g *ColSortGroupBy) rowsEqual(cb *ColBatch, a, b int) bool {
	for _, p := range g.groupPos {
		if cb.Cols[p][a] != cb.Cols[p][b] {
			return false
		}
	}
	return true
}

// NextBatch returns the next batch of completed groups. A batch may
// carry slightly more than the configured size when one input batch
// completes many groups; consumers iterate Rows, so this only affects
// granularity.
func (g *ColSortGroupBy) NextBatch() (*Batch, bool, error) {
	g.out.reset(g.size)
	for !g.done && len(g.out.Rows) < g.size {
		cb, ok, err := g.in.NextColBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.done = true
			if g.started {
				g.emit()
				g.started = false
			}
			break
		}
		g.fold(cb)
	}
	if len(g.out.Rows) == 0 {
		return nil, false, nil
	}
	return &g.out, true, nil
}

// Close gives the batch's headers back and closes the input through its
// columnar adapter.
func (g *ColSortGroupBy) Close() error {
	g.out.release()
	return g.in.Close()
}
