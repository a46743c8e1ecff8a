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
