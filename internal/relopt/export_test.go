package relopt

import "repro/internal/rel"

// NewWithParamSel is New with the selectivity assumed for parameterized
// predicates set to sel, the model each bucket of a dynamic sweep uses.
func NewWithParamSel(cat *rel.Catalog, cfg Config, sel float64) *Model {
	m := New(cat, cfg)
	m.paramSel = sel
	return m
}
