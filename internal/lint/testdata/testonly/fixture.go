// Package fixture exercises the testonly analyzer: an exported function or
// method that only fixture_test.go calls is a finding, and so is one that
// only calls itself; one a production file calls, methods that implement an
// interface and an annotated test hook are not.
package fixture

import "fmt"

// Used has a production caller.
func Used() int { return 1 }

// Unused has none.
func Unused() int { return 2 }

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type counter struct{ n int }

func (c *counter) Inc()  { c.n++ }
func (c *counter) Zero() { c.n = 0 }

// String implements fmt.Stringer; Close implements closer.
func (c *counter) String() string { return fmt.Sprint(c.n) }
func (c *counter) Close() error   { return nil }

type closer interface{ Close() error }

type wrapped struct{ err error }

// Error and Unwrap are the errors package's protocols.
func (w wrapped) Error() string { return w.err.Error() }
func (w wrapped) Unwrap() error { return w.err }

// Hook is a deliberate test hook.
//
//cplint:allow testonly TestHook sets it
func Hook() {}

func run() int {
	c := &counter{}
	c.Inc()
	return Used() + c.n
}
