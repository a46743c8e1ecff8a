//go:build !race

package vdb_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what it is given, so allocation budgets do not hold.
const raceEnabled = false
