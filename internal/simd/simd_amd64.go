//go:build amd64

package simd

// hasAVX is the one CPUID probe every vector kernel in the repo gates on:
// AVX2 and FMA with OS-enabled YMM state.
var hasAVX = cpuidAVX2FMA()

// cpuidAVX2FMA reports CPUID.1:ECX FMA+OSXSAVE+AVX, XGETBV XMM+YMM and
// CPUID.7.0:EBX AVX2. Implemented in simd_amd64.s.
func cpuidAVX2FMA() bool

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

// peakFMA runs iters passes of twelve independent register-resident 256-bit
// fused multiply-adds, double or single precision: BenchmarkPeakFMA's loop.
// Implemented in simd_amd64.s.
func peakFMA(iters int, double bool)
