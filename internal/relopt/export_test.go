package relopt

// WithParamSel is withParamSel: the model a dynamic sweep's bucket uses,
// assuming selectivity sel for parameterized predicates.
func (m *Model) WithParamSel(sel float64) *Model { return m.withParamSel(sel) }
