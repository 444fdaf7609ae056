package attention

import (
	"math"

	"repro/internal/simd"
)

// The softmax stage: deterministic e^(s - max) for a tile of scores.
//
// The kernels need one exponential per (query, head, key), which makes it
// the largest non-MAC term of prefill and decode. expNeg is the definition:
// the classical table-driven reduction x = (32m + i)·ln2/32 + r with
// |r| <= ln2/64, so
//
//	e^x = 2^m · 2^(i/32) · p(r)
//
// where p is the degree-5 Taylor polynomial of e^r (its degree-6 term is
// below 3e-15 relative on the reduced range, far inside the float64 noise of
// the surrounding softmax). Every multiply-add on the way is fused (numeric
// contract v2, math.FMA): n = floor(fma(x, 32/ln2, 1/2)), r = fma(-n, LLo,
// fma(-n, LHi, x)), p a Horner chain of five fma. The result is a pure
// function of x built from IEEE arithmetic — the same bits on every call,
// every goroutine, every worker count — which is all the repo's bit-identity
// guarantees need.
// Arguments are max-shifted scores, so x <= 0 in practice; values so
// negative that the 2^m bit-shift would leave the normal range fall back to
// math.Exp, which handles the denormal tail.
//
// The kernels do not call expNeg per element. softmaxTile converts one
// (head group × tile) chunk of scores in place, subtracting each head's max
// on the way, through expShiftVec: a vector form four lanes wide on amd64
// hosts with AVX2 and FMA, a four-lane interleaved Go loop everywhere else.
// Both are expNeg operation for operation — expNeg is their oracle — and any
// quad holding a lane the fast forms do not take (below expFloor, NaN, ±Inf)
// goes through expNeg itself, so how a caller tiles or batches its scores
// never changes a bit.
//
// Exactness anchor: expNeg(0) == 1 exactly (m = i = 0, r = 0, p(0) = 1), so
// a query attending to a single key still reproduces its V row bit-for-bit.
const (
	expInvL  = 46.166241308446828384      // 32/ln2
	expLHi   = 0x1.62e42feep-06           // ln2Hi/32: trailing zero bits make n*expLHi exact
	expLLo   = 5.96317165397058656256e-12 // ln2Lo/32; expLHi + expLLo = ln2/32
	expC2    = 1.0 / 2
	expC3    = 1.0 / 6
	expC4    = 1.0 / 24
	expC5    = 1.0 / 120
	expFloor = -690 // below this, delegate to math.Exp for the denormal tail
)

// expTab[i] = 2^(i/32), filled at init; math.Exp2 is deterministic within a
// process, which is the scope of the repo's bit-identity guarantees.
var expTab [32]float64

func init() {
	for i := range expTab {
		expTab[i] = math.Exp2(float64(i) / 32)
	}
}

// expPoly is the degree-5 Taylor polynomial of e^r as a Horner chain of
// fused multiply-adds.
func expPoly(r float64) float64 {
	return math.FMA(r, math.FMA(r, math.FMA(r, math.FMA(r, math.FMA(r, expC5, expC4), expC3), expC2), 1), 1)
}

// expNeg returns e^x for x <= 0 (NaN propagates).
func expNeg(x float64) float64 {
	if !(x >= expFloor) { // also catches NaN and -Inf via math.Exp
		return math.Exp(x)
	}
	n := math.Floor(math.FMA(x, expInvL, 0.5))
	r := math.FMA(-n, expLLo, math.FMA(-n, expLHi, x))
	p := expPoly(r)
	ni := int64(n)
	i := ni & 31
	m := (ni - i) >> 5
	s := expTab[i] * p
	return math.Float64frombits(math.Float64bits(s) + uint64(m)<<52)
}

// expShiftVec replaces every x[i] with expNeg(x[i] - shift): the subtract of
// the softmax max and the exponential in one sweep. On amd64 whole quads go
// through expShiftAVX2, which stops in front of the first quad holding a lane
// it does not take (|x-shift| > 690, NaN, ±Inf); that quad and every
// non-vector build run the portable loop below — four lanes interleaved so
// the polynomial latency chains of neighbouring elements overlap, each lane
// the arithmetic of expNeg, which also serves the out-of-range lanes
// directly. Whichever form handles an element, its bits are expNeg's.
func expShiftVec(x []float64, shift float64) {
	j := 0
	for ; j+3 < len(x); j += 4 {
		if simd.Available() {
			j += expShiftAVX2(&x[j], len(x)-j, shift)
			if j+3 >= len(x) {
				break
			}
		}
		x0, x1, x2, x3 := x[j]-shift, x[j+1]-shift, x[j+2]-shift, x[j+3]-shift
		if !(x0 >= expFloor) || !(x1 >= expFloor) || !(x2 >= expFloor) || !(x3 >= expFloor) {
			x[j], x[j+1], x[j+2], x[j+3] = expNeg(x0), expNeg(x1), expNeg(x2), expNeg(x3)
			continue
		}
		n0 := math.Floor(math.FMA(x0, expInvL, 0.5))
		n1 := math.Floor(math.FMA(x1, expInvL, 0.5))
		n2 := math.Floor(math.FMA(x2, expInvL, 0.5))
		n3 := math.Floor(math.FMA(x3, expInvL, 0.5))
		r0 := math.FMA(-n0, expLLo, math.FMA(-n0, expLHi, x0))
		r1 := math.FMA(-n1, expLLo, math.FMA(-n1, expLHi, x1))
		r2 := math.FMA(-n2, expLLo, math.FMA(-n2, expLHi, x2))
		r3 := math.FMA(-n3, expLLo, math.FMA(-n3, expLHi, x3))
		p0, p1, p2, p3 := expPoly(r0), expPoly(r1), expPoly(r2), expPoly(r3)
		i0, i1, i2, i3 := int64(n0)&31, int64(n1)&31, int64(n2)&31, int64(n3)&31
		s0 := expTab[i0] * p0
		s1 := expTab[i1] * p1
		s2 := expTab[i2] * p2
		s3 := expTab[i3] * p3
		x[j] = math.Float64frombits(math.Float64bits(s0) + uint64((int64(n0)-i0)>>5)<<52)
		x[j+1] = math.Float64frombits(math.Float64bits(s1) + uint64((int64(n1)-i1)>>5)<<52)
		x[j+2] = math.Float64frombits(math.Float64bits(s2) + uint64((int64(n2)-i2)>>5)<<52)
		x[j+3] = math.Float64frombits(math.Float64bits(s3) + uint64((int64(n3)-i3)>>5)<<52)
	}
	for ; j < len(x); j++ {
		x[j] = expNeg(x[j] - shift)
	}
}

// expNegVec replaces every element of x with e^x: the shift-0 edge of
// expShiftVec (x - 0 is x, bit for bit).
func expNegVec(x []float64) { expShiftVec(x, 0) }

// softmaxTile turns one tile of scores into softmax weights in place, for
// the whole head group: s[g*stride+j] = expNeg(s[g*stride+j] - shift[g]) for
// j < n. Elements between n and stride are not touched.
func softmaxTile(s, shift []float64, group, n, stride int) {
	for g := 0; g < group; g++ {
		expShiftVec(s[g*stride:][:n], shift[g])
	}
}
