//go:build !race

package exec

// RaceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what it is given, so allocation budgets do not hold.
const RaceEnabled = false
