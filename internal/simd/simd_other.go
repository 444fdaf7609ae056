//go:build !amd64

package simd

// Non-amd64 builds always take the portable scalar loops; the constant lets
// the compiler delete the vector branches entirely.
const hasAVX = false

func dotF32AVX(a, b []float32) float32 { panic("simd: dotF32AVX without AVX2+FMA") }

func dotPanel8AVX(dst *float32, ldd int, w, x *float32, n, tokens int) {
	panic("simd: dotPanel8AVX without AVX2+FMA")
}
