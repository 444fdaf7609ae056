//go:build amd64

package simd

// hasAVX is the one CPUID probe the repo's vector kernels share.
var hasAVX = cpuidAVX()

// hasAVX2 additionally admits the kernels that need 256-bit integer ops and
// gathers (the attention softmax stage).
var hasAVX2 = hasAVX && cpuidAVX2()

// cpuidAVX2 reports CPUID.7.0:EBX bit 5. Only meaningful once cpuidAVX holds
// (the YMM state check is shared). Implemented in simd_amd64.s.
func cpuidAVX2() bool

// cpuidAVX reports AVX support with OS-enabled YMM state (CPUID.1:ECX
// OSXSAVE+AVX, then XGETBV XMM+YMM). Implemented in simd_amd64.s.
func cpuidAVX() bool

// dotF32AVX is the vector form of DotF32Scalar: four float32 lanes in one
// XMM accumulator (lane i == scalar accumulator s_i), scalar tail into lane
// 0, horizontal reduction replaying ((s0+s2)+(s1+s3)). Implemented in
// simd_amd64.s.
func dotF32AVX(a, b []float32) float32

// dotPanel8AVX computes dst[t*ldd+r] = dot(w[r*n:], x[t*n:]) for eight
// weight rows and `tokens` activation rows, n a positive multiple of 4. Two
// cells share a YMM register (one per 128-bit half), each half the same
// four-lane accumulator as dotF32AVX. Implemented in simd_amd64.s.
//
//go:noescape
func dotPanel8AVX(dst *float32, ldd int, w, x *float32, n, tokens int)
