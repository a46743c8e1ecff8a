//go:build !race && !volcano_debug

package vdb_test

// poolsDrop reports that sync.Pool does not keep all it is given: the race
// detector makes it drop a share, and the volcano_debug tag keeps none
// (exec's scratch pools), so allocation budgets do not hold.
const poolsDrop = false
