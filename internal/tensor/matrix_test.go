package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	dst := make([]float32, 2)
	m.Mul(dst, []float32{1, 1, 1}, 1, false)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("Mul = %v, want [6 15]", dst)
	}
}

func TestMulVecShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	NewMatrix(2, 3).Mul(make([]float32, 2), make([]float32, 2), 1, false)
}

func TestApplyRows(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float32{0, 1, 1, 0}) // swap
	out := make([]float32, 4)
	m.ApplyRowsInto(out, []float32{1, 2, 3, 4}, 2)
	want := []float32{2, 1, 4, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("ApplyRows = %v, want %v", out, want)
		}
	}
}

func TestRandMatrixScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandMatrix(rng, 64, 256)
	var ss float64
	for _, v := range m.Data {
		ss += float64(v) * float64(v)
	}
	variance := ss / float64(len(m.Data))
	// Fan-in init: variance ~ 1/cols.
	if variance < 0.5/256 || variance > 2.0/256 {
		t.Fatalf("variance = %v, want ~%v", variance, 1.0/256)
	}
}

func TestRMSNormUnitScale(t *testing.T) {
	gain := []float32{1, 1, 1, 1}
	out := RMSNorm([]float32{2, 2, 2, 2}, gain, 1e-6)
	for _, v := range out {
		if math.Abs(float64(v)-1) > 1e-5 {
			t.Fatalf("RMSNorm = %v, want all ~1", out)
		}
	}
}

func TestRMSNormGain(t *testing.T) {
	out := RMSNorm([]float32{1, -1}, []float32{3, 0.5}, 0)
	if math.Abs(float64(out[0])-3) > 1e-5 || math.Abs(float64(out[1])+0.5) > 1e-5 {
		t.Fatalf("RMSNorm with gain = %v", out)
	}
}

func TestSiLU(t *testing.T) {
	if SiLU(0) != 0 {
		t.Fatal("SiLU(0) != 0")
	}
	if got := SiLU(10); math.Abs(float64(got)-10) > 1e-3 {
		t.Fatalf("SiLU(10) = %v, want ~10", got)
	}
	if got := SiLU(-10); math.Abs(float64(got)) > 1e-3 {
		t.Fatalf("SiLU(-10) = %v, want ~0", got)
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	w := append([]float32(nil), v...)
	RoPE(w, 0, 10000)
	for i := range v {
		if math.Abs(float64(v[i]-w[i])) > 1e-6 {
			t.Fatalf("RoPE at pos 0 changed vector: %v -> %v", v, w)
		}
	}
}

// RoPE preserves the norm of every rotated pair (it is a rotation).
func TestPropertyRoPEPreservesNorm(t *testing.T) {
	f := func(seed int64, rawPos uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float32, 8)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		var before float64
		for _, x := range v {
			before += float64(x) * float64(x)
		}
		RoPE(v, int(rawPos), 10000)
		var after float64
		for _, x := range v {
			after += float64(x) * float64(x)
		}
		return math.Abs(before-after) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The relative-position property that makes RoPE work with attention: the
// dot product of two rotated vectors depends only on the position offset.
func TestPropertyRoPERelativePositions(t *testing.T) {
	f := func(seed int64, rawA, rawD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := make([]float32, 8)
		k := make([]float32, 8)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
			k[i] = float32(rng.NormFloat64())
		}
		posA := int(rawA)
		delta := int(rawD) % 32
		q1 := append([]float32(nil), q...)
		k1 := append([]float32(nil), k...)
		RoPE(q1, posA+delta, 10000)
		RoPE(k1, posA, 10000)
		q2 := append([]float32(nil), q...)
		k2 := append([]float32(nil), k...)
		RoPE(q2, delta, 10000)
		RoPE(k2, 0, 10000)
		return math.Abs(float64(Dot(q1, k1))-float64(Dot(q2, k2))) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
