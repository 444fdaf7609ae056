//go:build amd64

package attention

// The vector inner loops are lane-for-lane the arithmetic of the portable
// loops in attention.go and exp.go, so switching between the two paths can
// never change a bit — it is purely a throughput decision, taken from
// simd.Available() (AVX2 and FMA) at each call; CPU detection lives in the
// shared internal/simd package.

// cvtAVX widens src into dst (len(dst) >= len(src)); float32→float64 is
// exact, so vector and scalar conversion agree bitwise. Implemented in
// simd_amd64.s.
func cvtAVX(dst []float64, src []float32)

// scoreTileAVX is scoreTile for dh a positive multiple of 4 and n >= 1: eight
// K rows per pass with the q chunk loaded once, each score's accumulator
// the same four fused lanes as the scalar unroll. Implemented in simd_amd64.s.
//
//go:noescape
func scoreTileAVX(q, rows, scores, maxs *float64, group, n, dh, stride int, scale float64)

// pvTileAVX is pvTile for dh a positive multiple of 4 and n >= 1: a head's
// accumulator stays in registers across the tile, column-blocked 32 wide.
// Implemented in simd_amd64.s.
//
//go:noescape
func pvTileAVX(w, rows, acc, denom *float64, group, n, dh, stride int)

// expVecConsts are expShiftAVX2's broadcast operands, indexed by position in
// the assembly. They are exp.go's constants themselves, so the vector and
// scalar forms cannot drift apart; the last is the vector range limit
// (|x| <= 690 keeps n inside 16 bits and excludes NaN and ±Inf).
var expVecConsts = [...]float64{expInvL, expC2, expLHi, expLLo, expC5, expC4, expC3, 1, -expFloor}

// expShiftAVX2 replaces x[i] with expNeg(x[i]-shift) for whole quads from
// x[0] and returns how many elements it converted: a multiple of four, short
// of n&^3 only when the next quad holds a lane outside the vector range,
// which the caller runs through the scalar form. Each lane is expNeg's
// arithmetic, operation for operation. Implemented in simd_amd64.s.
//
//go:noescape
func expShiftAVX2(x *float64, n int, shift float64) int
