package transformer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/simd"
)

// TestContractFingerprint logs (never asserts against a golden: no golden
// bits live in the tree) an FNV-64 of the tiny model's logits for one fixed
// prompt, at every vector tier the host has: the end-to-end witness of the
// kernel packages' fingerprints. CHANGES.md records the value at each
// deliberate flip of the numeric contract. It asserts that every tier logs
// the portable value.
func TestContractFingerprint(t *testing.T) {
	w, err := NewWeights(Tiny(23))
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 40)
	for i := range prompt {
		prompt[i] = (i*13 + 7) % w.Cfg.Model.VocabSize
	}
	var first uint64
	for i, tier := range simd.Tiers() {
		prev := simd.SetTier(tier)
		logits, err := w.Forward(prompt)
		simd.SetTier(prev)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, row := range logits {
			for _, v := range row {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
		t.Logf("contract fingerprint (%v): logits  %016x", tier, h.Sum64())
		if i == 0 {
			first = h.Sum64()
		} else if h.Sum64() != first {
			t.Errorf("tier %v logits fingerprint %016x differs from the portable oracle's %016x", tier, h.Sum64(), first)
		}
	}
}
