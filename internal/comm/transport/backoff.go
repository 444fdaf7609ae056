package transport

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Dial/rejoin retry policy: exponential backoff with deterministic jitter
// and a bounded retry budget, replacing the fixed 50ms sleep the dial loops
// used to spin on. The exponential curve stops a booting mesh from hammering
// a slow peer; the jitter decorrelates many dialers retrying the same
// address (every rank redials rank 0 after a coordinator restart); the
// budget turns a wedged peer into a named error instead of a silent spin
// until the rendezvous deadline.
const (
	// DefaultBackoffBase is the first retry delay.
	DefaultBackoffBase = 25 * time.Millisecond
	// DefaultBackoffCap bounds a single delay.
	DefaultBackoffCap = 1 * time.Second
	// DefaultRetryBudget bounds retries per handshake attempt. At the
	// default base/cap the budget spans well past the rendezvous window, so
	// in practice the deadline fires first; the budget is the hard stop
	// when callers configure long windows.
	DefaultRetryBudget = 64
)

// Backoff produces the retry delays of one dial loop. The jitter is a pure
// function of (seed, attempt) — SplitMix64 — so a retry schedule is
// reproducible run to run: chaos soaks replay byte-for-byte, yet two dialers
// with different seeds (different target addresses) never synchronize.
type Backoff struct {
	Base    time.Duration // first delay; 0 = DefaultBackoffBase
	Cap     time.Duration // per-delay ceiling; 0 = DefaultBackoffCap
	Budget  int           // max delays before giving up; 0 = DefaultRetryBudget
	Seed    uint64        // jitter stream selector
	attempt int
}

// NewBackoff returns a default-policy backoff whose jitter stream is seeded
// from an arbitrary name (typically the peer address being dialed).
func NewBackoff(name string) *Backoff {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Backoff{Seed: h.Sum64()}
}

// SplitMix64 is the output step of the splitmix64 PRNG: a bijective
// avalanche hash of its input. Backoff jitter and chaos's seeded schedules
// draw from it.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Next returns the delay to sleep before the next retry, or false when the
// retry budget is exhausted. Delay n is base*2^n capped at Cap, scaled by a
// deterministic jitter factor in [0.5, 1.0) — "equal jitter": never less
// than half the exponential value (so the curve still spaces retries), never
// more (so the cap holds).
func (b *Backoff) Next() (time.Duration, bool) {
	base, cap, budget := b.Base, b.Cap, b.Budget
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	if budget <= 0 {
		budget = DefaultRetryBudget
	}
	if b.attempt >= budget {
		return 0, false
	}
	d := base
	for i := 0; i < b.attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// Jitter fraction in [0.5, 1.0): top 53 bits of the hash as a float64
	// in [0,1), halved and shifted.
	frac := 0.5 + float64(SplitMix64(b.Seed^uint64(b.attempt))>>11)/float64(1<<53)/2
	b.attempt++
	return time.Duration(float64(d) * frac), true
}

// Exhausted formats the budget-exhausted error with the last cause.
func (b *Backoff) Exhausted(lastErr error) error {
	return fmt.Errorf("retry budget exhausted after %d attempts: %w", b.attempt, lastErr)
}
