//go:build volcano_debug

package exec

// debugBuild is set by the volcano_debug build tag: scratch pools then
// poison what they hand out and take back (scratch.go), every Run checks
// the stored tables against their checksums (Table.verify), and
// operators that rely on a sort order check it as they read (checkOrder).
const debugBuild = true
