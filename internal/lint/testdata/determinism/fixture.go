// Package fixture exercises the determinism analyzer: wall-clock reads
// (called or taken as func values), timers, and global math/rand draws are
// findings; explicitly seeded generators, pure duration arithmetic, and
// annotated reads are not.
package fixture

import (
	"math/rand"
	"time"
)

// Bad: wall-clock reads and a timer wait.
func clocks() (time.Time, time.Duration) {
	now := time.Now()
	d := time.Since(now)
	time.Sleep(time.Millisecond)
	return now, d
}

// Bad: the clock handed on as a func value is still the wall clock.
var now = time.Now

// Bad: draws from the global source.
func globalRand() int {
	f := rand.Float64()
	_ = f
	return rand.Intn(10)
}

// OK: an explicitly seeded generator.
func seeded() int {
	r := rand.New(rand.NewSource(7))
	return r.Intn(10)
}

// OK: pure duration arithmetic never consults the clock.
func pure() time.Duration {
	d, _ := time.ParseDuration("5ms")
	return d * 2
}

// OK: a justified, annotated read is suppressed.
func annotated() time.Time {
	return time.Now() //cplint:allow determinism fixture demonstrates suppression
}
