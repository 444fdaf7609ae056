package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
	"repro/internal/tensor"
)

// scalarDot replays the portable four-way unrolled dot product: one fused
// multiply-add per step (contract v2).
func scalarDot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 = math.FMA(a[i], b[i], s0)
		s1 = math.FMA(a[i+1], b[i+1], s1)
		s2 = math.FMA(a[i+2], b[i+2], s2)
		s3 = math.FMA(a[i+3], b[i+3], s3)
	}
	for ; i < len(a); i++ {
		s0 = math.FMA(a[i], b[i], s0)
	}
	return (s0 + s2) + (s1 + s3)
}

func randF64(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// kernelDims is every head dim 1..96 (all tail residues, both sides of each
// column-block width) plus the large production dim.
func kernelDims() []int {
	dims := []int{128}
	for dh := 1; dh <= 96; dh++ {
		dims = append(dims, dh)
	}
	return dims
}

func TestCvtAVXMatchesScalarExactly(t *testing.T) {
	if !simd.Available() {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewSource(12))
	for n := 0; n <= 70; n++ {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		cvts := map[string]func([]float64, []float32){"cvtAVX": cvtAVX}
		if simd.Detected() >= simd.AVX512 {
			cvts["cvt512"] = cvt512
		}
		for name, cvt := range cvts {
			dst := make([]float64, n+1)
			dst[n] = 7 // past the end: untouched
			cvt(dst[:n], src)
			for i := range src {
				if dst[i] != float64(src[i]) {
					t.Fatalf("%s(n=%d)[%d] = %x, want %x", name, n, i, dst[i], float64(src[i]))
				}
			}
			if dst[n] != 7 {
				t.Fatalf("%s(n=%d) wrote past its end", name, n)
			}
		}
	}
}

// scoreTile must equal the scalar unroll bitwise — scores, and the running
// max carried in from earlier tiles — at every head dim, every row count
// around the four-row pass and the eight-key batch, group sizes on both
// sides of the AVX-512 kernel's octets, and a stripe stride wider than the
// tile, at every tier the host has.
func TestScoreTileMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dh := range kernelDims() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32} {
			for _, group := range []int{1, 3, 8, 16} {
				stride := n + rng.Intn(5)
				q := randF64(rng, group*dh)
				rows := randF64(rng, n*dh)
				scale := rng.Float64() + 0.5
				prior := randF64(rng, group)
				prior[0] = NegInf
				want := make([]float64, (group-1)*stride+n)
				wantMax := append([]float64(nil), prior...)
				for g := 0; g < group; g++ {
					for jj := 0; jj < n; jj++ {
						s := scalarDot(q[g*dh:(g+1)*dh], rows[jj*dh:(jj+1)*dh]) * scale
						want[g*stride+jj] = s
						if s > wantMax[g] {
							wantMax[g] = s
						}
					}
				}
				for _, tier := range simd.Tiers() {
					got := make([]float64, len(want))
					gotMax := append([]float64(nil), prior...)
					prev := simd.SetTier(tier)
					scoreTile(q, rows, got, gotMax, group, n, dh, stride, scale)
					simd.SetTier(prev)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("scoreTile(dh=%d n=%d group=%d tier=%v)[%d] = %x, want %x", dh, n, group, tier, i, got[i], want[i])
						}
					}
					for g := range wantMax {
						if math.Float64bits(gotMax[g]) != math.Float64bits(wantMax[g]) {
							t.Fatalf("scoreTile(dh=%d n=%d group=%d tier=%v) max[%d] = %x, want %x", dh, n, group, tier, g, gotMax[g], wantMax[g])
						}
					}
				}
			}
		}
	}
}

// A NaN score must leave the running max alone, as the scalar compare does.
func TestScoreTileNaNLeavesMaxUnchanged(t *testing.T) {
	const dh, n = 8, 6
	q := make([]float64, dh)
	rows := make([]float64, n*dh)
	for i := range q {
		q[i] = 1
	}
	for jj := 0; jj < n; jj++ {
		rows[jj*dh] = float64(jj) // scores 0..5
	}
	rows[2*dh] = math.NaN() // score 2 (four-row pass) and
	rows[5*dh] = math.NaN() // score 5 (one-row pass) are NaN
	for _, tier := range simd.Tiers() {
		scores := make([]float64, n)
		maxs := []float64{NegInf}
		prev := simd.SetTier(tier)
		scoreTile(q, rows, scores, maxs, 1, n, dh, n, 1)
		simd.SetTier(prev)
		if maxs[0] != 4 || !math.IsNaN(scores[2]) || !math.IsNaN(scores[5]) {
			t.Fatalf("tier=%v: max %v scores %v", tier, maxs[0], scores)
		}
	}
}

// pvTile must equal the scalar accumulate bitwise — accumulators and
// denominators carried in from earlier tiles — at every head dim (all
// column-block remainders), row counts, group sizes (on both sides of the
// AVX-512 kernel's four-head pass) and a wide stride, at every tier the host
// has.
func TestPVTileMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dh := range kernelDims() {
		for _, n := range []int{1, 2, 5, 32} {
			for _, group := range []int{1, 3, 8, 16} {
				stride := n + rng.Intn(5)
				w := randF64(rng, (group-1)*stride+n)
				rows := randF64(rng, n*dh)
				acc0 := randF64(rng, group*dh)
				den0 := randF64(rng, group)
				wantAcc := append([]float64(nil), acc0...)
				wantDen := append([]float64(nil), den0...)
				for g := 0; g < group; g++ {
					for jj := 0; jj < n; jj++ {
						wj := w[g*stride+jj]
						wantDen[g] += wj
						for d := 0; d < dh; d++ {
							wantAcc[g*dh+d] = math.FMA(wj, rows[jj*dh+d], wantAcc[g*dh+d])
						}
					}
				}
				for _, tier := range simd.Tiers() {
					acc := append([]float64(nil), acc0...)
					den := append([]float64(nil), den0...)
					prev := simd.SetTier(tier)
					pvTile(w, rows, acc, den, group, n, dh, stride)
					simd.SetTier(prev)
					for i := range wantAcc {
						if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) {
							t.Fatalf("pvTile(dh=%d n=%d group=%d tier=%v) acc[%d] = %x, want %x", dh, n, group, tier, i, acc[i], wantAcc[i])
						}
					}
					for g := range wantDen {
						if math.Float64bits(den[g]) != math.Float64bits(wantDen[g]) {
							t.Fatalf("pvTile(dh=%d n=%d group=%d tier=%v) denom[%d] = %x, want %x", dh, n, group, tier, g, den[g], wantDen[g])
						}
					}
				}
			}
		}
	}
}

// Whole-kernel check on strided tiles: with several KV heads a head's stripe
// is a strided slice of every K/V row, contexts span several tiles with
// ragged ends, and masks cut intervals mid-tile. Every tier must agree with
// the portable path bitwise on outputs and LSEs.
func TestGQAVectorAndPortablePathsAgreeOnStridedTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dh := range []int{1, 3, 4, 7, 8, 16, 32, 33, 64, 128} {
		for _, heads := range [][2]int{{4, 2}, {6, 3}, {8, 1}, {16, 2}, {32, 2}} {
			nh, nkv := heads[0], heads[1]
			T, kv := 5, 2*kvTileRows+9
			q := tensor.RandN(rng, T, nh, dh)
			k := tensor.RandN(rng, kv, nkv, dh)
			v := tensor.RandN(rng, kv, nkv, dh)
			m := randomMask(rng, T, kv, true)
			for i := range m.QPos {
				m.QPos[i] += 40 // long contexts: most of the KV run is visible
			}
			prev := simd.SetTier(simd.Portable)
			want, err := GQA(q, k, v, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range simd.Tiers()[1:] {
				simd.SetTier(tier)
				got, err := GQA(q, k, v, m)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.O.Data {
					if math.Float32bits(got.O.Data[i]) != math.Float32bits(want.O.Data[i]) {
						t.Fatalf("dh=%d nh=%d nkv=%d tier=%v: O[%d] = %x, portable %x", dh, nh, nkv, tier, i, got.O.Data[i], want.O.Data[i])
					}
				}
				for i := range want.LSE {
					if math.Float64bits(got.LSE[i]) != math.Float64bits(want.LSE[i]) {
						t.Fatalf("dh=%d nh=%d nkv=%d tier=%v: LSE[%d] = %x, portable %x", dh, nh, nkv, tier, i, got.LSE[i], want.LSE[i])
					}
				}
			}
			simd.SetTier(prev)
		}
	}
}

// softmaxTile must equal expNeg(s - shift[g]) bitwise at every length around
// the four-lane quad and the eight-lane octet, with a stride wider than the
// tile (and the gap left alone), for inputs that put a NaN, ±Inf, a value
// below expFloor, ±0 and underflow in every lane position of a quad and of
// an octet, at every tier the host has.
func TestSoftmaxTileMatchesExpNegExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const sentinel = 12345.5
	for _, shift := range []float64{0, -3.7, 41.25} {
		// NaN, ±Inf, +0 and -0 arguments (s == shift; -0 - 0 at shift 0), past
		// the vector range on both sides, and underflow into the denormal
		// range and to zero.
		specials := []float64{math.NaN(), math.Inf(-1), shift + expFloor - 1, shift, math.Inf(1), shift + 700,
			math.Copysign(0, -1), shift - 740, shift - 800}
		for n := 0; n <= 67; n++ {
			for _, group := range []int{1, 3, 8, 16} {
				stride := n + rng.Intn(4)
				src := make([]float64, group*stride+1)
				for i := range src {
					src[i] = sentinel
				}
				shifts := make([]float64, group)
				for g := range shifts {
					shifts[g] = shift + float64(g)
					for j := 0; j < n; j++ {
						src[g*stride+j] = shifts[g] - rng.Float64()*40
					}
				}
				// One special per quad, rotating through the four lane positions
				// of a quad and the eight of an octet; every third quad stays
				// clean so vector quads and octets follow scalar ones.
				for q := 0; 4*q < n; q++ {
					if q%3 == 2 {
						continue
					}
					if j := 4*q + q/2%4; j < n {
						src[(q%group)*stride+j] = specials[(q+n)%len(specials)]
					}
				}
				want := append([]float64(nil), src...)
				for g := 0; g < group; g++ {
					for j := 0; j < n; j++ {
						want[g*stride+j] = expNeg(src[g*stride+j] - shifts[g])
					}
				}
				for _, tier := range simd.Tiers() {
					got := append([]float64(nil), src...)
					prev := simd.SetTier(tier)
					softmaxTile(got, shifts, group, n, stride)
					simd.SetTier(prev)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("softmaxTile(shift=%v n=%d group=%d stride=%d tier=%v)[%d] = %x (from %v), want %x", shift, n, group, stride, tier, i, got[i], src[i], want[i])
						}
					}
				}
			}
		}
	}
}

// The running max is "first maximal score in row order": +0 and -0 compare
// equal, so whichever came first stays, and a NaN never enters. The AVX2
// form takes the max of four rows at a time, the AVX-512 form one ordered
// compare per key with the group's heads as lanes; both must agree bitwise
// with the scalar compare on every arrangement of signed zeros, NaN, ±Inf
// and ordinary scores, in every lane position, including the max carried in.
func TestScoreTileMaxTieAndNaNOrderMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	// A zero dot is always +0 (the accumulators start there), so signed-zero
	// scores come from underflow in the scaling: ±1e-300 * 1e-300 = ±0.
	const dh, scale = 4, 1e-300
	vals := []float64{-1e-300, 1e-300, -1e200, math.NaN(), math.Inf(-1)}
	priors := []float64{math.Inf(-1), negZero, 0, -1}
	for trial := 0; trial < 20000; trial++ {
		group := []int{1, 8, 16}[trial%3]
		n := rng.Intn(19) + 1
		// Head g scores key j as rows[j*dh] * q[g*dh] * scale; q's sign flips
		// the key's value per head, so each lane sees its own arrangement.
		q := make([]float64, group*dh)
		for g := 0; g < group; g++ {
			q[g*dh] = []float64{1, -1}[rng.Intn(2)]
		}
		rows := make([]float64, n*dh)
		for j := 0; j < n; j++ {
			rows[j*dh] = vals[rng.Intn(len(vals))]
		}
		prior := make([]float64, group)
		for g := range prior {
			prior[g] = priors[rng.Intn(len(priors))]
		}
		var ref []float64
		for _, tier := range simd.Tiers() {
			scores, maxs := make([]float64, group*n), append([]float64(nil), prior...)
			prev := simd.SetTier(tier)
			scoreTile(q, rows, scores, maxs, group, n, dh, n, scale)
			simd.SetTier(prev)
			got := append(scores, maxs...)
			if tier == simd.Portable {
				ref = got
				continue
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("trial %d group=%d n=%d tier=%v prior=%v rows=%v: [%d] portable %x (%v), vector %x (%v)",
						trial, group, n, tier, prior, rows, i, ref[i], ref[i], got[i], got[i])
				}
			}
		}
	}
}
