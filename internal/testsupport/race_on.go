//go:build race

package testsupport

// Race reports a -race build. The race runtime allocates on its own account,
// so a test that counts the objects or bytes a warm path allocates does not
// check that count under it.
const Race = true
