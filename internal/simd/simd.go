// Package simd hosts the SIMD building blocks shared by the compute hot
// paths: the attention kernels (internal/attention) gate their AVX inner
// loops on the CPU detection here, and the projection/FFN/logits GEMM
// (internal/tensor) runs on the float32 dot-product family below.
//
// One CPUID probe (OSXSAVE+AVX with OS-enabled YMM state) gates vector
// kernels whose lane arithmetic is bit-for-bit that of their portable scalar
// fallbacks; AVX2 additionally admits the one kernel built on 256-bit integer
// ops and a gather (the attention softmax stage). The contract every kernel
// here obeys:
//
//   - The scalar fallback is the oracle. It uses four independent
//     accumulators combined as ((s0+s2)+(s1+s3)), with the tail folded into
//     s0, multiply then add (no FMA).
//   - The vector path maps lane i to scalar accumulator s_i and replays the
//     same horizontal reduction, so switching between the two paths can
//     never change a bit — it is purely a throughput decision.
//   - Register blocking changes how many output cells are in flight, never
//     how one cell is computed. DotPanel keeps sixteen cells' accumulators in
//     registers (two tokens × eight weight rows, two cells per YMM register)
//     and loads each operand chunk once per pass, which breaks the single
//     add-latency chain a lone dot is bound by; every cell is still the
//     four-lane accumulator DotF32 uses, and DotF32 is the 1×1 edge of the
//     same family. FMA and eight-lane accumulators would be faster still and
//     are out of scope because they change the rounding of every cell.
//
// Tests verify the equivalence bitwise at every length, including
// non-multiple-of-four tails, and every panel remainder.
package simd

// enabled gates the vector paths. It is initialized from CPUID and can be
// flipped with SetEnabled by tests and benchmarks that need the scalar
// oracle; it is never mutated while kernels are running.
var enabled = hasAVX

// Available reports whether the vector paths are active.
func Available() bool { return enabled }

// AVX2 reports whether the vector paths are active on a CPU that also has
// AVX2; kernels built on 256-bit integer ops or gathers gate on it.
func AVX2() bool { return enabled && hasAVX2 }

// SetEnabled turns the vector paths on or off and returns the previous
// state. Enabling is a no-op on hardware without AVX. Intended for tests
// and benchmarks that compare against the scalar oracle; do not call it
// concurrently with running kernels.
func SetEnabled(on bool) bool {
	prev := enabled
	enabled = on && hasAVX
	return prev
}

// DotF32 returns the inner product of two equal-length float32 vectors with
// the shared four-accumulator reduction order: the 1×1 member of the panel
// family, and the edge kernel DotPanel uses for rows and shapes its
// register-blocked pass does not cover.
func DotF32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("simd: dot length mismatch")
	}
	if enabled && len(a) >= 8 {
		return dotF32AVX(a, b)
	}
	return DotF32Scalar(a, b)
}

// DotF32Scalar is the portable oracle: four-way unrolled accumulators with
// the tail folded into s0, reduced as ((s0+s2)+(s1+s3)). The AVX kernel is
// verified bitwise against it.
func DotF32Scalar(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s2) + (s1 + s3)
}

// PanelRows is how many weight rows one register-blocked pass covers; callers
// that split a weight matrix across workers cut it at multiples of this.
const PanelRows = 8

// DotPanel computes a block of inner products between the rows of w and the
// rows of x, both row-major with row length n:
//
//	dst[t*ldd+r] = DotF32(w[r*n:(r+1)*n], x[t*n:(t+1)*n])
//
// for every weight row r and token row t. Eight weight rows at a time stay
// resident while all of x passes over them; rows beyond the last full
// eight, and shapes the vector pass does not take (n below 8 or not a
// multiple of 4), go cell by cell through DotF32 — the same bits either way.
func DotPanel(dst []float32, ldd int, w, x []float32, n int) {
	if n <= 0 || len(w)%n != 0 || len(x)%n != 0 {
		panic("simd: panel operands are not whole rows")
	}
	rows, tokens := len(w)/n, len(x)/n
	if rows == 0 || tokens == 0 {
		return
	}
	if ldd < rows || len(dst) < (tokens-1)*ldd+rows {
		panic("simd: panel destination too small")
	}
	r := 0
	if enabled && n >= 8 && n%4 == 0 {
		for ; r+PanelRows <= rows; r += PanelRows {
			dotPanel8AVX(&dst[r], ldd, &w[r*n], &x[0], n, tokens)
		}
	}
	for ; r < rows; r++ {
		wr := w[r*n : (r+1)*n]
		for t := 0; t < tokens; t++ {
			dst[t*ldd+r] = DotF32(wr, x[t*n:(t+1)*n])
		}
	}
}
