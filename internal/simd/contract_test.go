package simd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestContractFingerprint logs (never asserts: no golden bits live in the
// tree) an FNV-64 of the GEMM panel's output over fixed seeded shapes — a
// full eight-lane panel shape and one with row, token and length remainders.
// Run the same file at two commits to see whether the numeric contract of
// the GEMM cell moved between them; CHANGES.md records the value at each
// deliberate flip.
func TestContractFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	h := fnv.New64a()
	for _, shape := range [][3]int{{256, 24, 5}, {36, 9, 3}} {
		n, rows, tokens := shape[0], shape[1], shape[2]
		w := make([]float32, rows*n)
		x := make([]float32, tokens*n)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		dst := make([]float32, tokens*rows)
		DotPanel(dst, rows, w, x, n)
		for _, v := range dst {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	t.Logf("contract fingerprint: gemm-panel %016x", h.Sum64())
}
