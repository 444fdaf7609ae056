//go:build race

package testsupport

// Race reports a -race build. The race runtime can allocate on its own
// account, so a count it moves is adjusted or skipped under it, with the
// measured reason.
const Race = true
