//go:build amd64

package simd

// probe is the one CPUID probe every vector kernel in the repo gates on.
func probe() Tier {
	switch cpuidTier() {
	case 2:
		return AVX512
	case 1:
		return AVX2
	}
	return Portable
}

// cpuidTier returns 0 without AVX2+FMA; 1 with CPUID.1:ECX FMA+OSXSAVE+AVX,
// XGETBV XMM+YMM state and CPUID.7.0:EBX AVX2; 2 when, on top of that,
// CPUID.7.0:EBX reports AVX-512 F, DQ, BW and VL and XGETBV opmask and ZMM
// state. Implemented in simd_amd64.s.
func cpuidTier() uint8

// dotF32AVX is the vector form of DotF32Scalar: eight float32 lanes in one
// YMM accumulator (lane i == scalar accumulator s_i), fused multiply-add,
// scalar tail into lane 0, horizontal adds replaying the oracle's reduction
// tree. Implemented in simd_amd64.s.
func dotF32AVX(a, b []float32) float32

// dotPanel8AVX computes dst[t*ldd+r] = dot(w[r*n:], x[t*n:]) for eight
// weight rows and `tokens` activation rows, n a positive multiple of 8. Each
// cell is the eight-lane accumulator of dotF32AVX in a YMM register of its
// own. Implemented in simd_amd64.s.
//
//go:noescape
func dotPanel8AVX(dst *float32, ldd int, w, x *float32, n, tokens int)

// dotPanel8AVX512 is dotPanel8AVX with two cells per ZMM register, one per
// 256-bit half: a token pair's two cells of one weight row, or a lone
// token's cells of two weight rows. Each half is the same eight-lane
// accumulator. Implemented in simd_amd64.s.
//
//go:noescape
func dotPanel8AVX512(dst *float32, ldd int, w, x *float32, n, tokens int)

// peakFMA runs iters passes of twelve independent register-resident 256-bit
// fused multiply-adds, double or single precision: BenchmarkPeakFMA's loop.
// Implemented in simd_amd64.s.
func peakFMA(iters int, double bool)

// peakFMA512 is peakFMA on 512-bit ZMM registers: the AVX-512 tier's
// ceiling. Implemented in simd_amd64.s.
func peakFMA512(iters int, double bool)
