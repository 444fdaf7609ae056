package transformer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestContractFingerprint logs (never asserts: no golden bits live in the
// tree) an FNV-64 of the tiny model's logits for one fixed prompt: the
// end-to-end witness of the kernel packages' fingerprints. CHANGES.md
// records the value at each deliberate flip of the numeric contract.
func TestContractFingerprint(t *testing.T) {
	w, err := NewWeights(Tiny(23))
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 40)
	for i := range prompt {
		prompt[i] = (i*13 + 7) % w.Cfg.Model.VocabSize
	}
	logits, err := w.Forward(prompt)
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
	t.Logf("contract fingerprint: logits  %016x", h.Sum64())
}
