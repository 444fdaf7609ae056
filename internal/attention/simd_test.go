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
		dst := make([]float64, n)
		cvtAVX(dst, src)
		for i := range src {
			if dst[i] != float64(src[i]) {
				t.Fatalf("cvtAVX(n=%d)[%d] = %x, want %x", n, i, dst[i], float64(src[i]))
			}
		}
	}
}

// scoreTile must equal the scalar unroll bitwise — scores, and the running
// max carried in from earlier tiles — at every head dim, every row count
// around the four-row pass, several group sizes, and a stripe stride wider
// than the tile, with the vector path on and off.
func TestScoreTileMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dh := range kernelDims() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32} {
			for _, group := range []int{1, 3, 8} {
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
				for _, on := range []bool{true, false} {
					got := make([]float64, len(want))
					gotMax := append([]float64(nil), prior...)
					prev := simd.SetEnabled(on)
					scoreTile(q, rows, got, gotMax, group, n, dh, stride, scale)
					simd.SetEnabled(prev)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("scoreTile(dh=%d n=%d group=%d simd=%v)[%d] = %x, want %x", dh, n, group, on, i, got[i], want[i])
						}
					}
					for g := range wantMax {
						if math.Float64bits(gotMax[g]) != math.Float64bits(wantMax[g]) {
							t.Fatalf("scoreTile(dh=%d n=%d group=%d simd=%v) max[%d] = %x, want %x", dh, n, group, on, g, gotMax[g], wantMax[g])
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
	for _, on := range []bool{true, false} {
		scores := make([]float64, n)
		maxs := []float64{NegInf}
		prev := simd.SetEnabled(on)
		scoreTile(q, rows, scores, maxs, 1, n, dh, n, 1)
		simd.SetEnabled(prev)
		if maxs[0] != 4 || !math.IsNaN(scores[2]) || !math.IsNaN(scores[5]) {
			t.Fatalf("simd=%v: max %v scores %v", on, maxs[0], scores)
		}
	}
}

// pvTile must equal the scalar accumulate bitwise — accumulators and
// denominators carried in from earlier tiles — at every head dim (all
// column-block remainders), row counts, group sizes and a wide stride, with
// the vector path on and off.
func TestPVTileMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dh := range kernelDims() {
		for _, n := range []int{1, 2, 5, 32} {
			for _, group := range []int{1, 3, 8} {
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
				for _, on := range []bool{true, false} {
					acc := append([]float64(nil), acc0...)
					den := append([]float64(nil), den0...)
					prev := simd.SetEnabled(on)
					pvTile(w, rows, acc, den, group, n, dh, stride)
					simd.SetEnabled(prev)
					for i := range wantAcc {
						if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) {
							t.Fatalf("pvTile(dh=%d n=%d group=%d simd=%v) acc[%d] = %x, want %x", dh, n, group, on, i, acc[i], wantAcc[i])
						}
					}
					for g := range wantDen {
						if math.Float64bits(den[g]) != math.Float64bits(wantDen[g]) {
							t.Fatalf("pvTile(dh=%d n=%d group=%d simd=%v) denom[%d] = %x, want %x", dh, n, group, on, g, den[g], wantDen[g])
						}
					}
				}
			}
		}
	}
}

// Whole-kernel check on strided tiles: with several KV heads a head's stripe
// is a strided slice of every K/V row, contexts span several tiles with
// ragged ends, and masks cut intervals mid-tile. The vector and portable
// paths must agree bitwise on outputs and LSEs.
func TestGQAVectorAndPortablePathsAgreeOnStridedTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dh := range []int{1, 3, 4, 7, 8, 16, 32, 33, 64, 128} {
		for _, heads := range [][2]int{{4, 2}, {6, 3}, {8, 1}} {
			nh, nkv := heads[0], heads[1]
			T, kv := 5, 2*kvTileRows+9
			q := tensor.RandN(rng, T, nh, dh)
			k := tensor.RandN(rng, kv, nkv, dh)
			v := tensor.RandN(rng, kv, nkv, dh)
			m := randomMask(rng, T, kv, true)
			for i := range m.QPos {
				m.QPos[i] += 40 // long contexts: most of the KV run is visible
			}
			prev := simd.SetEnabled(false)
			want, err := GQA(q, k, v, m)
			simd.SetEnabled(true)
			got, err2 := GQA(q, k, v, m)
			simd.SetEnabled(prev)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			for i := range want.O.Data {
				if math.Float32bits(got.O.Data[i]) != math.Float32bits(want.O.Data[i]) {
					t.Fatalf("dh=%d nh=%d nkv=%d: O[%d] = %x, portable %x", dh, nh, nkv, i, got.O.Data[i], want.O.Data[i])
				}
			}
			for i := range want.LSE {
				if math.Float64bits(got.LSE[i]) != math.Float64bits(want.LSE[i]) {
					t.Fatalf("dh=%d nh=%d nkv=%d: LSE[%d] = %x, portable %x", dh, nh, nkv, i, got.LSE[i], want.LSE[i])
				}
			}
		}
	}
}

// softmaxTile must equal expNeg(s - shift[g]) bitwise at every length around
// the four-lane quad, with a stride wider than the tile (and the gap left
// alone), for inputs that put a NaN, -Inf, a value below expFloor and 0 in
// every lane position of a quad, with the vector path on and off.
func TestSoftmaxTileMatchesExpNegExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const sentinel = 12345.5
	for _, shift := range []float64{0, -3.7, 41.25} {
		specials := []float64{math.NaN(), math.Inf(-1), shift + expFloor - 1, shift, math.Inf(1), shift + 700}
		for n := 0; n <= 67; n++ {
			for _, group := range []int{1, 3, 8} {
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
				// One special per quad, rotating through the lane positions;
				// every third quad stays clean so vector quads follow scalar ones.
				for q := 0; 4*q < n; q++ {
					if q%3 == 2 {
						continue
					}
					if j := 4*q + q%4; j < n {
						src[(q%group)*stride+j] = specials[(q+n)%len(specials)]
					}
				}
				want := append([]float64(nil), src...)
				for g := 0; g < group; g++ {
					for j := 0; j < n; j++ {
						want[g*stride+j] = expNeg(src[g*stride+j] - shifts[g])
					}
				}
				for _, on := range []bool{true, false} {
					got := append([]float64(nil), src...)
					prev := simd.SetEnabled(on)
					softmaxTile(got, shifts, group, n, stride)
					simd.SetEnabled(prev)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("softmaxTile(shift=%v n=%d group=%d stride=%d simd=%v)[%d] = %x (from %v), want %x", shift, n, group, stride, on, i, got[i], src[i], want[i])
						}
					}
				}
			}
		}
	}
}

// The running max is "first maximal score in row order": +0 and -0 compare
// equal, so whichever came first stays, and a NaN never enters. The vector
// form takes the max of four rows at a time and must still agree bitwise with
// the scalar compare on every arrangement of signed zeros, NaN, -Inf and
// ordinary scores, including the max carried in.
func TestScoreTileMaxTieAndNaNOrderMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	// A zero dot is always +0 (the accumulators start there), so signed-zero
	// scores come from underflow in the scaling: ±1e-300 * 1e-300 = ±0.
	const dh, scale = 4, 1e-300
	vals := []float64{-1e-300, 1e-300, -1e200, math.NaN(), math.Inf(-1)}
	q := []float64{1, 0, 0, 0} // score j = rows[j*dh] * scale
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(19) + 1
		rows := make([]float64, n*dh)
		for j := 0; j < n; j++ {
			rows[j*dh] = vals[rng.Intn(len(vals))]
		}
		prior := []float64{math.Inf(-1), negZero, 0, -1}[rng.Intn(4)]
		var got [2][]float64
		for i, on := range []bool{false, true} {
			scores, maxs := make([]float64, n), []float64{prior}
			prev := simd.SetEnabled(on)
			scoreTile(q, rows, scores, maxs, 1, n, dh, n, scale)
			simd.SetEnabled(prev)
			got[i] = append(scores, maxs[0])
		}
		for i := range got[0] {
			if math.Float64bits(got[0][i]) != math.Float64bits(got[1][i]) {
				t.Fatalf("trial %d n=%d prior=%v rows=%v: [%d] portable %x (%v), vector %x (%v)",
					trial, n, prior, rows, i, got[0][i], got[0][i], got[1][i], got[1][i])
			}
		}
	}
}
