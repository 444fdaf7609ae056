package attention

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

func fingerprint64(xs []float64) uint64 {
	h := fnv.New64a()
	for _, v := range xs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestContractFingerprint logs (never asserts against a golden: no golden
// bits live in the tree) an FNV-64 of each attention stage's output, at
// every tier the host has, over one fixed seeded
// tile: head dim 64, a group of 8, 29 rows. The score line's inputs are
// float32 values widened to float64, as in production — the reason that
// stage is bit-for-bit the same with and without fused multiply-add (every
// product is exact). The softmax and PV lines take inputs of their own
// rather than the previous line's output, so each line moves only with its
// own stage's arithmetic. Run the same file at two commits to see which stages'
// numeric contract moved between them; CHANGES.md records the values at each
// deliberate flip. What it does assert is that every tier logs the portable
// oracle's values.
func TestContractFingerprint(t *testing.T) {
	var first [3]uint64
	for i, tier := range simd.Tiers() {
		prev := simd.SetTier(tier)
		fp := stageFingerprints()
		simd.SetTier(prev)
		t.Logf("contract fingerprint (%v): score   %016x", tier, fp[0])
		t.Logf("contract fingerprint (%v): softmax %016x", tier, fp[1])
		t.Logf("contract fingerprint (%v): pv      %016x", tier, fp[2])
		if i == 0 {
			first = fp
		} else if fp != first {
			t.Errorf("tier %v fingerprints %x differ from the portable oracle's %x", tier, fp, first)
		}
	}
}

// stageFingerprints runs each stage once over the fixed seeded inputs at the
// active tier and returns the FNV-64 of score, softmax and pv outputs.
func stageFingerprints() [3]uint64 {
	const dh, group, n, stride = 64, 8, 29, kvTileRows
	rng := rand.New(rand.NewSource(19))
	widened := func(count int) []float64 {
		out := make([]float64, count)
		for i := range out {
			out[i] = float64(float32(rng.NormFloat64()))
		}
		return out
	}
	q, kRows, vRows := widened(group*dh), widened(n*dh), widened(n*dh)
	var fp [3]uint64

	scores := make([]float64, group*stride)
	maxs := make([]float64, group)
	for g := range maxs {
		maxs[g] = NegInf
	}
	scoreTile(q, kRows, scores, maxs, group, n, dh, stride, 1/math.Sqrt(dh))
	fp[0] = fingerprint64(append(scores, maxs...))

	// The fused exponential differs from the unfused one on about one
	// argument in 400, so this line takes 64 tiles of scores of its own.
	logits := make([]float64, 64*group*stride)
	for i := range logits {
		logits[i] = maxs[i/stride%group] - 30*rng.Float64()
	}
	for tile := 0; tile < len(logits); tile += group * stride {
		softmaxTile(logits[tile:], maxs, group, stride, stride)
	}
	fp[1] = fingerprint64(logits)

	weights := make([]float64, group*stride)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	acc := make([]float64, group*dh)
	denom := make([]float64, group)
	pvTile(weights, vRows, acc, denom, group, n, dh, stride)
	fp[2] = fingerprint64(append(acc, denom...))
	return fp
}

// scoreV1 is contract v1's score cell — multiply, round, add — kept in this
// test file only. The explicit conversions forbid the compiler from fusing
// (it would on arm64).
func scoreV1(q, row []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(q); i += 4 {
		s0 += float64(q[i] * row[i])
		s1 += float64(q[i+1] * row[i+1])
		s2 += float64(q[i+2] * row[i+2])
		s3 += float64(q[i+3] * row[i+3])
	}
	for ; i < len(q); i++ {
		s0 += float64(q[i] * row[i])
	}
	return (s0 + s2) + (s1 + s3)
}

// Why the score stage did not flip with contract v2: in production q and the
// K tile are float32 values widened to float64, the product of two such
// values has at most 48 significant bits and is exact in float64, so a fused
// multiply-add rounds exactly what multiply-then-add rounds. scoreTile must
// therefore equal the v1 cell bitwise on float32-origin inputs, at every
// tier, with the head group on both sides of the AVX-512 kernel's octets. (On arbitrary float64 inputs the two differ; only the v2 oracle is
// the contract there.)
func TestScoreTileEqualsV1OnFloat32OriginInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	widened := func(count int) []float64 {
		out := make([]float64, count)
		for i := range out {
			out[i] = float64(float32(rng.NormFloat64()))
		}
		return out
	}
	for _, group := range []int{3, 8} {
		for _, dh := range []int{4, 20, 32, 64, 128} {
			for n := 1; n <= 67; n++ {
				q, rows := widened(group*dh), widened(n*dh)
				scale := 1 / math.Sqrt(float64(dh))
				want := make([]float64, group*n)
				wantMax := make([]float64, group)
				for g := range wantMax {
					wantMax[g] = NegInf
					for j := 0; j < n; j++ {
						s := scoreV1(q[g*dh:(g+1)*dh], rows[j*dh:(j+1)*dh]) * scale
						want[g*n+j] = s
						wantMax[g] = math.Max(wantMax[g], s)
					}
				}
				for _, tier := range simd.Tiers() {
					got := make([]float64, group*n)
					gotMax := make([]float64, group)
					for g := range gotMax {
						gotMax[g] = NegInf
					}
					prev := simd.SetTier(tier)
					scoreTile(q, rows, got, gotMax, group, n, dh, n, scale)
					simd.SetTier(prev)
					if fingerprint64(got) != fingerprint64(want) || fingerprint64(gotMax) != fingerprint64(wantMax) {
						t.Fatalf("group=%d dh=%d n=%d tier=%v: scoreTile differs from the v1 mul-then-add cell", group, dh, n, tier)
					}
				}
			}
		}
	}
}
