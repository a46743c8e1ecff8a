//go:build !volcano_debug

package exec

// debugPools is set by the volcano_debug build tag: scratch pools then
// poison what they hand out and take back (scratch.go).
const debugPools = false
