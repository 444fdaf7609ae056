//go:build !amd64

package attention

// Non-amd64 builds always take the portable loops: simd.Available() is
// constant false there, so these are never reached.

func cvtAVX(dst []float64, src []float32) { panic("attention: cvtAVX without AVX2+FMA") }

func scoreTileAVX(q, rows, scores, maxs *float64, group, n, dh, stride int, scale float64) {
	panic("attention: scoreTileAVX without AVX2+FMA")
}

func pvTileAVX(w, rows, acc, denom *float64, group, n, dh, stride int) {
	panic("attention: pvTileAVX without AVX2+FMA")
}

func expShiftAVX2(x *float64, n int, shift float64) int {
	panic("attention: expShiftAVX2 without AVX2+FMA")
}

func cvt512(dst []float64, src []float32) { panic("attention: cvt512 without AVX-512") }

func scoreTile512(qt, rows, scores, maxs *float64, group, n, dh, stride int, scale float64) {
	panic("attention: scoreTile512 without AVX-512")
}

func pvTile512(w, rows, acc, denom *float64, group, n, dh, stride int) {
	panic("attention: pvTile512 without AVX-512")
}

func expShift512(x *float64, n int, shift float64) int {
	panic("attention: expShift512 without AVX-512")
}
