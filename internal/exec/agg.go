package exec

import "repro/internal/rel"

// aggState accumulates one aggregate over a group.
type aggState struct {
	fn    rel.AggFn
	pos   int // argument position; -1 for COUNT
	count int64
	sum   int64
	min   int64
	max   int64
	any   bool
}

// aggPositions resolves aggregate argument positions once, so per-group
// state initialization never consults the schema.
func aggPositions(aggs []rel.Agg, schema *Schema) []int {
	pos := make([]int, len(aggs))
	for i, a := range aggs {
		pos[i] = -1
		if a.Fn != rel.AggCount {
			pos[i] = schema.Pos(a.Col)
		}
	}
	return pos
}

// newAggStates initializes per-group accumulators from pre-resolved
// argument positions (see aggPositions).
func newAggStates(aggs []rel.Agg, pos []int) []aggState {
	out := make([]aggState, len(aggs))
	for i, a := range aggs {
		out[i] = aggState{fn: a.Fn, pos: pos[i]}
	}
	return out
}

func (s *aggState) add(r Row) {
	s.count++
	if s.pos < 0 {
		return
	}
	v := r[s.pos]
	s.sum += v
	if !s.any || v < s.min {
		s.min = v
	}
	if !s.any || v > s.max {
		s.max = v
	}
	s.any = true
}

func (s *aggState) value() int64 {
	switch s.fn {
	case rel.AggCount:
		return s.count
	case rel.AggSum:
		return s.sum
	case rel.AggMin:
		return s.min
	case rel.AggMax:
		return s.max
	}
	return 0
}

// groupOrder is the order grouping operators emit their groups in:
// ascending on the n leading output columns, the group values.
func groupOrder(n int) []sortKey {
	keys := make([]sortKey, n)
	for i := range keys {
		keys[i].pos = i
	}
	return keys
}

// SortGroupBy groups a stream already sorted on the grouping columns,
// emitting one row per group: group values followed by aggregate values.
type SortGroupBy struct {
	// In is the input stream, sorted on the grouping columns.
	In Iterator

	groupPos []int
	aggs     []rel.Agg
	aggPos   []int
	size     int

	in     cursor
	cur    Row
	states []aggState
	done   bool
	out    Batch
	ra     rowAdapter
}

// NewSortGroupBy resolves grouping columns and aggregate arguments
// against the input schema.
func NewSortGroupBy(in Iterator, schema *Schema, groupCols []rel.ColID, aggs []rel.Agg) *SortGroupBy {
	g := &SortGroupBy{In: in, aggs: aggs, aggPos: aggPositions(aggs, schema), size: DefaultBatchSize}
	for _, c := range groupCols {
		g.groupPos = append(g.groupPos, schema.Pos(c))
	}
	return g
}

// SetBatchSize sets the rows per batch.
func (g *SortGroupBy) SetBatchSize(n int) { g.size = sizeOrDefault(n) }

// Open opens the input.
func (g *SortGroupBy) Open() error {
	g.cur, g.states, g.done = nil, nil, false
	g.ra.reset()
	if err := g.In.Open(); err != nil {
		return err
	}
	g.in.reset(asBatch(g.In))
	return nil
}

// NextBatch returns the next batch of completed groups.
func (g *SortGroupBy) NextBatch() (*Batch, bool, error) {
	g.out.reset(g.size)
	for !g.done && len(g.out.Rows) < g.size {
		row, ok, err := g.in.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.done = true
			if g.cur != nil {
				g.emit()
			}
			break
		}
		if g.cur == nil {
			g.start(row)
			continue
		}
		same := true
		for _, p := range g.groupPos {
			if row[p] != g.cur[p] {
				same = false
				break
			}
		}
		if same {
			for i := range g.states {
				g.states[i].add(row)
			}
			continue
		}
		g.emit()
		g.start(row)
	}
	if len(g.out.Rows) == 0 {
		return nil, false, nil
	}
	return &g.out, true, nil
}

func (g *SortGroupBy) start(row Row) {
	g.cur = row
	g.states = newAggStates(g.aggs, g.aggPos)
	for i := range g.states {
		g.states[i].add(row)
	}
}

func (g *SortGroupBy) emit() {
	w := len(g.groupPos) + len(g.states)
	out := g.out.alloc(w, w*g.size)
	for i, p := range g.groupPos {
		out[i] = g.cur[p]
	}
	for i := range g.states {
		out[len(g.groupPos)+i] = g.states[i].value()
	}
}

// Next returns the next completed group.
func (g *SortGroupBy) Next() (Row, bool, error) { return g.ra.next(g) }

// Close gives the batch's headers back and closes the input.
func (g *SortGroupBy) Close() error {
	g.out.release()
	return g.In.Close()
}

// HashGroupBy groups an unordered stream via a hash table, emitting
// groups in a deterministic (sorted) order once the input is drained.
type HashGroupBy struct {
	// In is the input stream.
	In Iterator
	// SizeHint pre-sizes the group hash table; the plan builder sets it
	// from the optimizer's output-cardinality estimate.
	SizeHint int

	groupPos []int
	aggs     []rel.Agg
	aggPos   []int
	size     int

	out  []Row
	next int
	view Batch
	ra   rowAdapter
}

// NewHashGroupBy resolves grouping columns and aggregate arguments
// against the input schema.
func NewHashGroupBy(in Iterator, schema *Schema, groupCols []rel.ColID, aggs []rel.Agg) *HashGroupBy {
	g := &HashGroupBy{In: in, aggs: aggs, aggPos: aggPositions(aggs, schema), size: DefaultBatchSize}
	for _, c := range groupCols {
		g.groupPos = append(g.groupPos, schema.Pos(c))
	}
	return g
}

// SetBatchSize sets the rows per batch.
func (g *HashGroupBy) SetBatchSize(n int) { g.size = sizeOrDefault(n) }

// Open drains the input into the hash table and materializes the groups.
func (g *HashGroupBy) Open() error {
	if err := g.In.Open(); err != nil {
		return err
	}
	type entry struct {
		key    Row
		states []aggState
	}
	entries := make([]entry, 0, g.SizeHint)
	in := newCursor(asBatch(g.In))
	if len(g.groupPos) == 1 {
		// Single grouping column: key the table on the value itself.
		// This is the common case and avoids building a string key per
		// input row.
		p := g.groupPos[0]
		idx := make(map[int64]int32, g.SizeHint)
		for {
			row, ok, err := in.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			k := row[p]
			i, ok := idx[k]
			if !ok {
				i = int32(len(entries))
				entries = append(entries, entry{key: Row{k}, states: newAggStates(g.aggs, g.aggPos)})
				idx[k] = i
			}
			states := entries[i].states
			for j := range states {
				states[j].add(row)
			}
		}
	} else {
		idx := make(map[string]int32, g.SizeHint)
		key := make(Row, len(g.groupPos))
		for {
			row, ok, err := in.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			for i, p := range g.groupPos {
				key[i] = row[p]
			}
			ks := rowKey(key)
			i, ok := idx[ks]
			if !ok {
				i = int32(len(entries))
				entries = append(entries, entry{key: key.Clone(), states: newAggStates(g.aggs, g.aggPos)})
				idx[ks] = i
			}
			states := entries[i].states
			for j := range states {
				states[j].add(row)
			}
		}
	}
	out := rowScratch.get(len(entries))[:len(entries)]
	for i := range entries {
		e := &entries[i]
		row := make(Row, 0, len(e.key)+len(e.states))
		row = append(row, e.key...)
		for j := range e.states {
			row = append(row, e.states[j].value())
		}
		out[i] = row
	}
	sortRows(out, groupOrder(len(g.groupPos)))
	g.out = out
	g.next = 0
	g.ra.reset()
	return nil
}

// NextBatch returns the next batch of groups as a view over the
// materialized output.
func (g *HashGroupBy) NextBatch() (*Batch, bool, error) {
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

// Next returns the next group.
func (g *HashGroupBy) Next() (Row, bool, error) { return g.ra.next(g) }

// Close gives the groups' header vector back and closes the input.
func (g *HashGroupBy) Close() error {
	rowScratch.put(g.out)
	g.out = nil
	return g.In.Close()
}
