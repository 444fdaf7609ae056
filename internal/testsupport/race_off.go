//go:build !race

package testsupport

// Race reports a -race build (see race_on.go).
const Race = false
