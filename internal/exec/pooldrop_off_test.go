//go:build !race && !volcano_debug

package exec

// PoolsDrop reports that sync.Pool does not keep all it is given: the race
// detector makes it drop a share, and the volcano_debug tag keeps none
// (scratch.go), so allocation budgets do not hold.
const PoolsDrop = false
