package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// Attention outputs are convex combinations of value rows: per head and
// dimension, every output lies within [min, max] of the attended values.
func TestPropertyOutputInConvexHull(t *testing.T) {
	f := func(seed int64, rawT uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		T := int(rawT%8) + 2
		q := tensor.RandN(rng, T, 4, 4)
		k := tensor.RandN(rng, T, 2, 4)
		v := tensor.RandN(rng, T, 2, 4)
		out, err := GQA(q, k, v, FullCausal(T))
		if err != nil {
			return false
		}
		group := 4 / 2
		for tok := 0; tok < T; tok++ {
			for h := 0; h < 4; h++ {
				kvh := h / group
				for d := 0; d < 4; d++ {
					lo, hi := math.Inf(1), math.Inf(-1)
					for j := 0; j <= tok; j++ {
						x := float64(v.Row(j, kvh)[d])
						if x < lo {
							lo = x
						}
						if x > hi {
							hi = x
						}
					}
					got := float64(out.O.Row(tok, h)[d])
					if got < lo-1e-5 || got > hi+1e-5 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Softmax weights are shift-invariant: adding a constant to every key's dot
// product (by shifting Q along a direction orthogonal to nothing — emulate
// by scaling all K rows' contribution via an additive constant column) must
// not change outputs. We test the equivalent property directly exposed by
// the implementation: scaling Q and K jointly by c and 1/c preserves scores.
func TestPropertyScoreScaleInvariance(t *testing.T) {
	f := func(seed int64, rawC uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := float32(rawC%7) + 2
		T := 5
		q := tensor.RandN(rng, T, 2, 4)
		k := tensor.RandN(rng, T, 1, 4)
		v := tensor.RandN(rng, T, 1, 4)
		base, err := GQA(q, k, v, FullCausal(T))
		if err != nil {
			return false
		}
		qs, ks := tensor.New(T, 2, 4), tensor.New(T, 1, 4)
		for i := range qs.Data {
			qs.Data[i] = q.Data[i] * c
		}
		for i := range ks.Data {
			ks.Data[i] = k.Data[i] * (1 / c)
		}
		scaled, err := GQA(qs, ks, v, FullCausal(T))
		if err != nil {
			return false
		}
		return tensor.MaxAbsDiff(base.O, scaled.O) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// LSE is the log-partition function: exp(LSE) must equal the sum of
// exponentiated scores, verified against a direct computation.
func TestLSEMatchesDirectPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	T := 6
	q := tensor.RandN(rng, T, 2, 4)
	k := tensor.RandN(rng, T, 1, 4)
	v := tensor.RandN(rng, T, 1, 4)
	out, err := GQA(q, k, v, FullCausal(T))
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 / math.Sqrt(4)
	for tok := 0; tok < T; tok++ {
		for h := 0; h < 2; h++ {
			var part float64
			for j := 0; j <= tok; j++ {
				part += math.Exp(float64(tensor.Dot(q.Row(tok, h), k.Row(j, 0))) * scale)
			}
			if diff := math.Abs(out.LSE[tok*out.O.Heads+h] - math.Log(part)); diff > 1e-4 {
				t.Fatalf("LSE(%d,%d) = %v, direct %v", tok, h, out.LSE[tok*out.O.Heads+h], math.Log(part))
			}
		}
	}
}
