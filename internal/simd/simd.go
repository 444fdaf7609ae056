// Package simd hosts the SIMD building blocks shared by the compute hot
// paths: the attention kernels (internal/attention) and the FFN's SiLU
// (internal/tensor) gate their vector inner loops on the CPU detection
// here, and the projection/FFN/logits GEMM (internal/tensor) runs on the
// float32 dot-product family below.
//
// One CPUID probe, run once at start-up, sorts the host into a vector tier
// (Tier), and every vector kernel in the repo gates on it:
//
//   - AVX512: AVX-512 F, DQ, BW and VL with OS-enabled opmask and ZMM state
//     (XCR0 bits 5–7), on top of everything AVX2 needs. The attention tile
//     kernels and the FFN's SiLU run eight float64 lanes wide in ZMM
//     registers, and the GEMM panel holds two cells in each.
//   - AVX2: AVX2 and FMA with OS-enabled YMM state (XCR0 bits 1–2). Every
//     vector kernel has a form at this tier; on an AVX2-only host it is the
//     only vector path.
//   - Portable: the Go loops, which compute the same bits, slowly. Builds
//     for any other architecture have only this tier.
//
// A tier includes the ones below it: a shape the wide form does not take
// runs the AVX2 form on an AVX-512 host. The tier is a throughput decision
// only. No flag, env var or config field selects it; SetTier caps it, so
// that one AVX-512 host tests every tier against the portable oracle. The
// numeric contract (v2: one rounding per multiply-add) every kernel here
// obeys:
//
//   - The scalar fallback is the oracle. It uses eight independent
//     accumulators over elements i mod 8, the tail folded into s0, every
//     step a float32 fused multiply-add s = round(a·b + s), combined as
//     ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)).
//   - Go has no float32 FMA and float32(math.FMA(...)) is not one: rounding
//     the exact sum to float64 and then to float32 rounds twice. fma32
//     rounds the float64 sum to odd first, which makes the second rounding
//     the only one that counts — bit for bit VFMADD231SS, denormals and
//     overflow included.
//   - The vector path maps lane i of a YMM register, or of one 256-bit half
//     of a ZMM register, to scalar accumulator s_i and replays the same
//     reduction tree, so switching between the paths can never change a
//     bit — it is purely a throughput decision.
//   - Register blocking changes how many output cells are in flight, never
//     how one cell is computed. DotPanel keeps at least eight cells'
//     accumulators in registers — the eight independent chains two FMA
//     ports of latency four need: at AVX2 four weight rows × two tokens, or
//     eight rows × one token; at AVX-512 eight rows × four tokens, or two
//     tokens, two cells per register — and loads each weight chunk once per
//     pass; every cell is still the eight-lane accumulator DotF32 uses, and
//     DotF32 is the 1×1 edge of the same family.
//
// Tests verify the equivalence bitwise at every length, including tails
// that are no multiple of eight, and every panel remainder.
package simd

import "math"

// Tier is a vector instruction tier. Tiers are ordered: each includes the
// ones below it.
type Tier uint8

const (
	Portable Tier = iota // the Go loops: the oracle
	AVX2                 // AVX2 + FMA, 256-bit YMM
	AVX512               // AVX-512 F/DQ/BW/VL, 512-bit ZMM and opmasks
)

// String names the tier as runinfo and /v1/stats record it.
func (t Tier) String() string {
	switch t {
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return "portable"
}

// detected is what the CPU and OS support; ceiling is the test hook
// (SetTier); active, which the kernels read, is the lower of the two. Tests
// and benchmarks change the hook between kernel calls, never while kernels
// are running.
var (
	detected = probe()
	ceiling  = detected
	active   = detected
)

// Detected returns the highest tier this host supports.
//
//cplint:allow testonly TestProbeNamesTier and the per-tier kernel tests read the host tier
func Detected() Tier { return detected }

// Active returns the tier the kernels run at: the detected tier, capped by
// SetTier.
func Active() Tier { return active }

// Available reports whether the vector paths are active: the CPU and OS
// support at least AVX2 and FMA, and SetTier has not capped them off.
func Available() bool { return active >= AVX2 }

// Tiers lists the tiers this host can run, Portable first: what a bitwise
// kernel test iterates over.
//
//cplint:allow testonly every bitwise kernel test (TestKernelsInvisibleInPrefillAndFusedDecode) loops over it
func Tiers() []Tier {
	ts := make([]Tier, 0, detected+1)
	for t := Portable; t <= detected; t++ {
		ts = append(ts, t)
	}
	return ts
}

// SetTier caps the active tier at t (the detected tier still bounds it) and
// returns the previous cap; SetTier(Detected()) lifts the cap. A test hook:
// an AVX-512 host runs its AVX2 kernels under SetTier(AVX2). Do not call it
// concurrently with running kernels.
//
//cplint:allow testonly every bitwise kernel test (TestKernelsInvisibleInPrefillAndFusedDecode) caps the tier with it
func SetTier(t Tier) Tier {
	prev := ceiling
	ceiling = t
	active = min(ceiling, detected)
	return prev
}

// fma32 returns a*b + c rounded once to float32. The product of two float32
// values is exact in float64; the float64 sum p + c may round, and rounding
// that to float32 again could land on the wrong side of a float32 tie. So
// when the sum is inexact (TwoSum error e != 0) and its last mantissa bit is
// even, it moves one ulp toward the true value — round to odd — after which
// the conversion to float32 is the single correct rounding. NaN and ±Inf
// make e NaN and pass through untouched.
func fma32(a, b, c float32) float32 {
	p, cc := float64(a)*float64(b), float64(c)
	s := p + cc
	t := s - p
	e := (p - (s - t)) + (cc - t)
	if bits := math.Float64bits(s); (e < 0 || e > 0) && bits&1 == 0 {
		if (e > 0) == (s > 0) {
			bits++
		} else {
			bits--
		}
		s = math.Float64frombits(bits)
	}
	return float32(s)
}

// DotF32 returns the inner product of two equal-length float32 vectors with
// the shared eight-accumulator reduction order: the 1×1 member of the panel
// family, and the edge kernel DotPanel uses for rows and shapes its
// register-blocked pass does not cover.
func DotF32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("simd: dot length mismatch")
	}
	if active >= AVX2 && len(a) >= 8 {
		return dotF32AVX(a, b)
	}
	return DotF32Scalar(a, b)
}

// DotF32Scalar is the portable oracle: eight-way unrolled fused
// multiply-add accumulators with the tail folded into s0, reduced as
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). The vector kernels are verified
// bitwise against it.
func DotF32Scalar(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+7 < len(a); i += 8 {
		s0 = fma32(a[i], b[i], s0)
		s1 = fma32(a[i+1], b[i+1], s1)
		s2 = fma32(a[i+2], b[i+2], s2)
		s3 = fma32(a[i+3], b[i+3], s3)
		s4 = fma32(a[i+4], b[i+4], s4)
		s5 = fma32(a[i+5], b[i+5], s5)
		s6 = fma32(a[i+6], b[i+6], s6)
		s7 = fma32(a[i+7], b[i+7], s7)
	}
	for ; i < len(a); i++ {
		s0 = fma32(a[i], b[i], s0)
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
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
// resident while all of x passes over them, in the widest form the tier
// has; rows beyond the last full eight, and shapes the vector pass does not
// take (n below 8 or not a multiple of 8), go cell by cell through DotF32 —
// the same bits either way.
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
	switch {
	case active >= AVX512 && n%8 == 0:
		for ; r+PanelRows <= rows; r += PanelRows {
			dotPanel8AVX512(&dst[r], ldd, &w[r*n], &x[0], n, tokens)
		}
	case active >= AVX2 && n%8 == 0:
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
