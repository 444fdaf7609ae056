package transformer

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/ring"
	"repro/internal/simd"
)

// The parallel+SIMD forward pass must be bit-identical to the serial scalar
// reference — vector dot disabled, pool width 1, the seed engine's exact
// arithmetic — at every worker width, across the whole serving surface:
// cold chunked prefill, warm prefix-adopted prefill, and fused batch decode
// (run under -race in CI, which also hunts pool/ring data races).
func TestForwardBitIdenticalToScalarSerialReference(t *testing.T) {
	for _, v := range []model.Variant{model.PassKV, model.PassQ} {
		t.Run(v.String(), func(t *testing.T) {
			prevTier := simd.SetTier(simd.Portable)
			oldW := parallel.SetWorkers(1)
			defer func() {
				simd.SetTier(prevTier)
				parallel.SetWorkers(oldW)
			}()
			ref := runParallelScenario(t, Tiny(19), 8, 2, v)
			simd.SetTier(prevTier)
			for _, workers := range []int{1, 2, 8} {
				parallel.SetWorkers(workers)
				got := runParallelScenario(t, Tiny(19), 8, 2, v)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d produced %d logit vectors, scalar serial %d", workers, len(got), len(ref))
				}
				for i := range got {
					requireExact(t, got[i], ref[i], fmt.Sprintf("simd workers=%d vector %d", workers, i))
				}
			}
		})
	}
}

// Ring overlap must be externally invisible through the full TCP stack:
// logits, decode streams, and the cluster's modeled per-link communication
// accounting are exactly equal with overlap on and off. Wire-level counters
// are excluded — the TCP transport's heartbeats make raw wire bytes
// legitimately nondeterministic — but the modeled bytes the paper's cost
// model tracks must match to the last byte.
func TestDistributedOverlapParity(t *testing.T) {
	cfg := Tiny(41)
	scenario := func() ([][]float32, Telemetry) {
		c := startLoopbackCluster(t, cfg, 2, 0)
		prompt := make([]int, 24)
		for i := range prompt {
			prompt[i] = (i*7 + 2) % cfg.Model.VocabSize
		}
		var all [][]float32
		all = append(all, chunkedPrefill(t, c, 1, prompt, 8, model.PassKV)...)
		all = append(all, chunkedPrefill(t, c, 2, prompt[:16], 8, model.PassQ)...)
		toks := []int{3, 5}
		for step := 0; step < 3; step++ {
			batch, err := c.DecodeBatch([]int{1, 2}, toks)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
			toks[0] = Argmax(batch[0])
			toks[1] = Argmax(batch[1])
		}
		tel, err := c.Telemetry()
		if err != nil {
			t.Fatal(err)
		}
		return all, tel
	}

	prev := ring.SetOverlap(false)
	defer ring.SetOverlap(prev)
	syncLogits, syncTel := scenario()
	ring.SetOverlap(true)
	ovLogits, ovTel := scenario()

	sameLogits(t, "overlap vs synchronous", syncLogits, ovLogits)
	if !reflect.DeepEqual(syncTel.Comm, ovTel.Comm) {
		t.Fatalf("modeled comm totals differ:\nsync:    %+v\noverlap: %+v", syncTel.Comm, ovTel.Comm)
	}
	if len(syncTel.Links) != len(ovTel.Links) {
		t.Fatalf("link count differs: %d vs %d", len(syncTel.Links), len(ovTel.Links))
	}
	for i := range syncTel.Links {
		a, b := syncTel.Links[i], ovTel.Links[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Messages != b.Messages || a.Bytes != b.Bytes {
			t.Fatalf("modeled link %d accounting differs:\nsync:    %+v\noverlap: %+v", i, a, b)
		}
	}
}

// The register-blocked kernels must be invisible end to end on a model wide
// enough to reach every path the Tiny scenarios skip: prefill shards that
// span several GEMM token blocks, decode steps whose GEMMs fan over weight
// rows, attention contexts that span several K/V tiles. Two geometries run:
// four query heads on two KV heads of dim 16, and the benchmark model's
// bench-gqa8 shape — eight query heads on one KV head of dim 32, where every
// AVX-512 attention kernel takes its widest path. Prefill logits and a
// fused decode stream over every session are exactly equal to the portable
// serial run at every tier the host has, at 1, 2 and 8 workers.
func TestKernelsInvisibleInPrefillAndFusedDecode(t *testing.T) {
	for _, geo := range []struct {
		name                 string
		dim, ffn, nh, nkv    int
		dh, prompt, sessions int
	}{
		{"nh4-nkv2-dh16", 64, 128, 4, 2, 16, 150, 8},
		{"gqa8-dh32", 256, 256, 8, 1, 32, 72, 4},
	} {
		t.Run(geo.name, func(t *testing.T) {
			cfg := Tiny(23)
			cfg.Model.ModelDim, cfg.Model.FFNDim = geo.dim, geo.ffn
			cfg.Model.NumHeads, cfg.Model.NumKV, cfg.Model.HeadDim = geo.nh, geo.nkv, geo.dh
			kernelsInvisible(t, cfg, geo.sessions, geo.prompt)
		})
	}
}

// kernelsInvisible runs TestKernelsInvisibleInPrefillAndFusedDecode's
// scenario on cfg: sessions ragged prompts from promptLen tokens, prefilled
// and then decoded six fused steps.
func kernelsInvisible(t *testing.T, cfg Config, sessions, promptLen int) {
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	scenario := func() [][]float32 {
		c, err := NewCluster(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var all [][]float32
		seqs, toks := make([]int, sessions), make([]int, sessions)
		for s := range seqs {
			prompt := make([]int, promptLen+s) // ragged: odd shard sizes, panel remainders
			for i := range prompt {
				prompt[i] = (i*13 + s*7 + 1) % cfg.Model.VocabSize
			}
			logits, err := c.Prefill(s, prompt, model.Auto)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, logits...)
			seqs[s], toks[s] = s, Argmax(logits[len(logits)-1])
		}
		for step := 0; step < steps; step++ {
			batch, err := c.DecodeBatch(seqs, toks)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
			for s := range toks {
				toks[s] = Argmax(batch[s])
			}
		}
		return all
	}

	prevTier := simd.SetTier(simd.Portable)
	oldW := parallel.SetWorkers(1)
	defer func() {
		simd.SetTier(prevTier)
		parallel.SetWorkers(oldW)
	}()
	ref := scenario()
	simd.SetTier(prevTier)
	for _, tier := range simd.Tiers() {
		prevTier := simd.SetTier(tier)
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			sameLogits(t, fmt.Sprintf("tier=%v workers=%d vs portable serial", tier, workers), ref, scenario())
		}
		simd.SetTier(prevTier)
	}
}
