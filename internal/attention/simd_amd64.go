//go:build amd64

package attention

// The AVX inner loops are lane-for-lane the arithmetic of the portable loops
// in attention.go, so switching between the two paths can never change a bit
// — it is purely a throughput decision, taken from simd.Available() at each
// call (CPU detection lives in the shared internal/simd package).

// cvtAVX widens src into dst (len(dst) >= len(src)); float32→float64 is
// exact, so vector and scalar conversion agree bitwise. Implemented in
// simd_amd64.s.
func cvtAVX(dst []float64, src []float32)

// scoreTileAVX is scoreTile for dh a positive multiple of 4 and n >= 1: four
// K rows per pass with the q chunk loaded once, each score's accumulator
// the same four lanes as the scalar unroll. Implemented in simd_amd64.s.
//
//go:noescape
func scoreTileAVX(q, rows, scores, maxs *float64, group, n, dh, stride int, scale float64)

// pvTileAVX is pvTile for dh a positive multiple of 4 and n >= 1: a head's
// accumulator stays in registers across the tile, column-blocked 32 wide.
// Implemented in simd_amd64.s.
//
//go:noescape
func pvTileAVX(w, rows, acc, denom *float64, group, n, dh, stride int)
