package simd

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzSpecials are the float32 classes a panel cell must carry through like
// the oracle: signed zeros, the smallest and largest denormals, the largest
// finite value, infinities and quiet and signalling NaNs.
var fuzzSpecials = []uint32{0, 0x80000000, 1, 0x80000001, 0x007fffff, 0x807fffff,
	0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7f800001}

// sameCell is bitwise equality, with every NaN one value: which NaN operand
// a vector FMA or horizontal add propagates depends on operand order, which
// the scalar oracle's compiled code does not pin either.
func sameCell(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// FuzzDotPanel searches panel shapes: rows and tokens 1–40, n 1–300 (most
// not multiples of 8, so the vector passes meet their edge paths), ldd up to
// three past rows, and values drawn from a seeded normal stream with the
// fuzzed share of them replaced by fuzzSpecials. Every cell must equal
// DotF32Scalar at every tier the host has, and the padding columns must
// stay untouched. The seeds are TestDotPanelMatchesScalarExactly's corners.
func FuzzDotPanel(f *testing.F) {
	for _, c := range [][3]int{{1, 1, 1}, {7, 1, 1}, {8, 8, 1}, {8, 8, 2}, {8, 8, 3}, {8, 8, 4}, {8, 8, 5},
		{9, 9, 3}, {16, 16, 4}, {15, 17, 5}, {17, 7, 2}, {96, 17, 5}, {96, 16, 5}, {24, 9, 4}} {
		f.Add(uint16(c[0]-1), uint8(c[1]-1), uint8(c[2]-1), uint8(3), int64(c[0]*c[1]+c[2]), uint8(0))
		f.Add(uint16(c[0]-1), uint8(c[1]-1), uint8(c[2]-1), uint8(0), int64(c[0]+c[1]*c[2]), uint8(40))
	}
	f.Fuzz(func(t *testing.T, n16 uint16, rows8, tokens8, pad uint8, seed int64, specials uint8) {
		n, rows, tokens := 1+int(n16)%300, 1+int(rows8)%40, 1+int(tokens8)%40
		ldd := rows + int(pad)%4
		rng := rand.New(rand.NewSource(seed))
		draw := func(v []float32) {
			for i := range v {
				v[i] = float32(rng.NormFloat64())
				if rng.Intn(256) < int(specials) {
					v[i] = math.Float32frombits(fuzzSpecials[rng.Intn(len(fuzzSpecials))])
				}
			}
		}
		w, x := make([]float32, rows*n), make([]float32, tokens*n)
		draw(w)
		draw(x)
		want := make([]float32, tokens*rows)
		for tk := 0; tk < tokens; tk++ {
			for r := 0; r < rows; r++ {
				want[tk*rows+r] = DotF32Scalar(w[r*n:(r+1)*n], x[tk*n:(tk+1)*n])
			}
		}
		dst := make([]float32, tokens*ldd)
		for _, tier := range Tiers() {
			for i := range dst {
				dst[i] = -7
			}
			prev := SetTier(tier)
			DotPanel(dst, ldd, w, x, n)
			SetTier(prev)
			for tk := 0; tk < tokens; tk++ {
				for r := 0; r < ldd; r++ {
					w := float32(-7)
					if r < rows {
						w = want[tk*rows+r]
					}
					if got := dst[tk*ldd+r]; !sameCell(got, w) {
						t.Fatalf("DotPanel(n=%d rows=%d tokens=%d ldd=%d tier=%v)[%d,%d] = %#08x, want %#08x",
							n, rows, tokens, ldd, tier, tk, r, math.Float32bits(got), math.Float32bits(w))
					}
				}
			}
		}
	})
}
