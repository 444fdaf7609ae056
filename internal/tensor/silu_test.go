package tensor

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/simd"
)

var siluAll = flag.Bool("silu.all", false, "TestSiLUMulEveryInput sweeps all 2^32 float32 patterns, not every 4099th")

// siluUp is the fixed up row of the sweeps, repeating every four lanes: ±1
// and 2 keep SiLU's bits visible in the product, 1.1 makes it round.
var siluUp = [4]float32{1, -2, 1.1, -1}

// checkSiLUMul runs SiLUMul's code over the patterns at every tier, split
// over the pool, and reports every pattern whose output differs in any bit
// from SiLU(x)*up.
func checkSiLUMul(t *testing.T, blocks int, block func(b int, bits []uint32) int) {
	t.Helper()
	const size = 1 << 16
	var mu sync.Mutex
	failures := 0
	parallel.For(blocks, func(lo, hi int) {
		bits := make([]uint32, size)
		gate, up, want, got := make([]float32, size), make([]float32, size), make([]float32, size), make([]float32, size)
		for i := range up {
			up[i] = siluUp[i%len(siluUp)]
		}
		for b := lo; b < hi; b++ {
			n := block(b, bits)
			for i, p := range bits[:n] {
				gate[i] = math.Float32frombits(p)
				want[i] = SiLU(gate[i]) * up[i]
			}
			for _, tier := range simd.Tiers() {
				siluMulAt(tier, got[:n], gate[:n], up[:n])
				for i := range got[:n] {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						mu.Lock()
						if failures++; failures <= 10 {
							t.Errorf("tier %v: SiLUMul(%#08x) * %g = %#08x, SiLU gives %#08x",
								tier, bits[i], up[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
						mu.Unlock()
					}
				}
			}
		}
	})
}

// SiLUMul's AVX-512 form equals the SiLU loop for every float32 input: with
// -silu.all, for all 2^32 patterns (CI runs that as a step of its own, with
// and without cpu.fma, so math.Exp takes each of its two sequences);
// otherwise for every 4099th pattern and, densely, every class where exp
// takes a branch of its own — zeros, denormals, the largest finite values,
// ±Inf, quiet and signalling NaNs, and a few thousand patterns either side
// of exp's overflow, its denormal band and its underflow.
func TestSiLUMulEveryInput(t *testing.T) {
	if *siluAll {
		checkSiLUMul(t, 1<<16, func(b int, bits []uint32) int {
			for i := range bits {
				bits[i] = uint32(b)<<16 | uint32(i)
			}
			return len(bits)
		})
		return
	}
	var special []uint32
	for _, p := range []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000,
		0x7f800001, 0x7fa00000, 0x7fc00000, 0x7fc12345, 0x7fffffff} {
		special = append(special, p, p|0x80000000)
	}
	// exp(-x) overflows below x = -709.78 (k = 1024 from -709.44), turns
	// denormal above x = 708.40 and underflows to 0 above x = 745.13.
	for _, v := range []float32{709.78, 709.44, 708.40, 745.13, 88.72, 1} {
		for d := -2048; d <= 2048; d++ {
			p := uint32(int32(math.Float32bits(v)) + int32(d))
			special = append(special, p, p|0x80000000)
		}
	}
	const stride = 4099
	strided := (1<<32 + stride - 1) / stride
	blocks := (strided + len(special) + 1<<16 - 1) >> 16
	checkSiLUMul(t, blocks, func(b int, bits []uint32) int {
		n := 0
		for i := b << 16; i < (b+1)<<16 && i < strided+len(special); i++ {
			if i < strided {
				bits[n] = uint32(i * stride)
			} else {
				bits[n] = special[i-strided]
			}
			n++
		}
		return n
	})
}

// SiLUMul on rows of every length 0..40 (whole octets plus a tail) with a
// random up row, at every tier: lane and tail bookkeeping.
func TestSiLUMulRows(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 0; n <= 40; n++ {
		gate, up := make([]float32, n), make([]float32, n)
		for i := range gate {
			gate[i] = float32(rng.NormFloat64() * 8)
			up[i] = float32(rng.NormFloat64())
		}
		for _, tier := range simd.Tiers() {
			got := make([]float32, n+1)
			got[n] = -7
			siluMulAt(tier, got, gate, up)
			for i := 0; i < n; i++ {
				if want := SiLU(gate[i]) * up[i]; math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d tier=%v: act[%d] = %x, want %x", n, tier, i, got[i], want)
				}
			}
			if got[n] != -7 {
				t.Fatalf("n=%d tier=%v: wrote past the row", n, tier)
			}
		}
	}
}

// BenchmarkSiLURow is the FFN gating over one 512-wide row (bench-gqa8's
// FFN dimension) at every tier the host has: the scalar loop at portable
// and avx2, eight lanes at avx512.
func BenchmarkSiLURow(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(45))
	gate, up, act := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range gate {
		gate[i] = float32(rng.NormFloat64() * 2)
		up[i] = float32(rng.NormFloat64())
	}
	for _, tier := range simd.Tiers() {
		b.Run(fmt.Sprintf("tier=%v", tier), func(b *testing.B) {
			defer simd.SetTier(simd.SetTier(tier))
			for i := 0; i < b.N; i++ {
				SiLUMul(act, gate, up)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}
