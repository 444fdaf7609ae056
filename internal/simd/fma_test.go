package simd

import (
	"math"
	"math/rand"
	"testing"
)

// hardwareFMA32 makes the vector kernel compute one float32 fused
// multiply-add: in a nine-element dot, lane 0 holds fma(c, 1, 0) = c after
// the eight-wide pass and the one-element scalar tail then fuses a*b into
// it; the other lanes stay zero.
func hardwareFMA32(a, b, c float32) float32 {
	return dotF32AVX([]float32{c, 0, 0, 0, 0, 0, 0, 0, a}, []float32{1, 0, 0, 0, 0, 0, 0, 0, b})
}

func pow2(e int) float32 { return float32(math.Ldexp(1, e)) }

// The float32 oracle must be a true single-rounding FMA. On these triples
// a*b lands a hair (2^-46 relative) off the midpoint between two float32
// neighbours of c: the exact sum rounds one way, but rounding it to float64
// first loses the hair, lands on the midpoint, and the second rounding breaks
// the tie the other way. float32(math.FMA(...)) is asserted to get every one
// of them wrong, so nobody "simplifies" fma32 into it.
func TestFMA32IsNotDoubleRounded(t *testing.T) {
	up, down := 1+pow2(-23), 1-pow2(-23)
	for _, tc := range []struct {
		name    string
		a, b, c float32
		want    uint32
	}{
		{"just below the tie", 8 * up, 8 * down, pow2(30) + 128, 0x4e800001},
		{"mirrored signs", -8 * up, 8 * down, -(pow2(30) + 128), 0xce800001},
		{"negative product, just above the tie", 8 * up, -8 * down, pow2(30) + 128, 0x4e800001},
		{"small exponents", pow2(-70) * up, pow2(-60) * down, pow2(-106) + pow2(-129), 0x0a800001},
		{"unequal exponents", pow2(-10) * up, 4 * down, pow2(16) + pow2(-7), 0x47800001},
		{"denormal result", pow2(-75) * up, pow2(-75) * down, math.Float32frombits(0x00400001), 0x00400001},
	} {
		if got := math.Float32bits(fma32(tc.a, tc.b, tc.c)); got != tc.want {
			t.Errorf("%s: fma32 = %#08x, want %#08x", tc.name, got, tc.want)
		}
		naive := float32(math.FMA(float64(tc.a), float64(tc.b), float64(tc.c)))
		if math.Float32bits(naive) == tc.want {
			t.Errorf("%s: float32(math.FMA) = %#08x is not double-rounded; the triple proves nothing", tc.name, tc.want)
		}
		if hasAVX {
			if got := math.Float32bits(hardwareFMA32(tc.a, tc.b, tc.c)); got != tc.want {
				t.Errorf("%s: VFMADD231SS = %#08x, want %#08x", tc.name, got, tc.want)
			}
		}
	}
}

// fma32 against the hardware instruction on random operands drawn over the
// whole exponent range — denormal inputs and results, overflow to ±Inf,
// cancellation — plus non-finite operands.
func TestFMA32MatchesHardware(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(20))
	draw := func() float32 {
		switch rng.Intn(64) {
		case 0:
			return float32(math.Inf(rng.Intn(2)*2 - 1))
		case 1:
			return float32(math.NaN())
		case 2:
			return 0
		}
		return math.Float32frombits(rng.Uint32()) // any sign, exponent, mantissa
	}
	for i := 0; i < 400000; i++ {
		a, b, c := draw(), draw(), draw()
		if i%2 == 0 { // near-cancellation: c close to -a*b
			c = -float32(float64(a)*float64(b)) * (1 + float32(rng.Intn(5)-2)*pow2(-23))
		}
		got, want := fma32(a, b, c), hardwareFMA32(a, b, c)
		if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) && !(got == 0 && want == 0) {
			t.Fatalf("fma32(%x, %x, %x) = %x (%#08x), VFMADD231SS %x (%#08x)",
				a, b, c, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}
