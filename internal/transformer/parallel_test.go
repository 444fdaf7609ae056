package transformer

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
)

// scenario runs the full serving surface on a fresh cluster — cold chunked
// prefill, warm (prefix-seeded) chunked prefill, and a decode tail — and
// returns every logit vector produced, in a fixed order.
func runParallelScenario(t *testing.T, ranks int, v model.Variant) [][]float32 {
	t.Helper()
	const budget = 8
	w, err := NewWeights(Tiny(19))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 28)
	for i := range prompt {
		prompt[i] = (i*11 + 5) % w.Cfg.Model.VocabSize
	}
	var all [][]float32

	// Cold chunked prefill plus a few decode steps.
	all = append(all, chunkedPrefill(t, c, 1, prompt, budget, v)...)
	tok := 3
	for step := 0; step < 4; step++ {
		logits, err := c.Decode(1, tok)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, logits)
		tok = Argmax(logits)
	}

	// Warm path: detach the first two budget-aligned chunks of the donor,
	// drop it, seed a new session, prefill only the suffix, then decode.
	pre, err := c.DetachPrefix(1, 2*budget)
	if err != nil {
		t.Fatal(err)
	}
	c.Drop(1)
	if err := c.AdoptPrefix(2, pre); err != nil {
		t.Fatal(err)
	}
	all = append(all, chunkedPrefill(t, c, 2, prompt[2*budget:], budget, v)...)
	for step := 0; step < 3; step++ {
		logits, err := c.Decode(2, tok)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, logits)
		tok = Argmax(logits)
	}

	// A fused batch decode alongside a second resident sequence.
	if _, err := c.Prefill(7, prompt[:budget], v); err != nil {
		t.Fatal(err)
	}
	batch, err := c.DecodeBatch([]int{2, 7}, []int{tok, 9})
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, batch...)
	return all
}

// Kernel fan-out must be invisible in the results: every ring variant, the
// warm-prefill path, and batched decode produce bit-identical logits at 1,
// 2, and 8 workers (run under -race in CI, this also exercises the pool for
// data races against the rank goroutines).
func TestClusterBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, ranks := range []int{2, 3} {
		for _, v := range []model.Variant{model.PassKV, model.PassQ, model.Auto} {
			t.Run(fmt.Sprintf("ranks=%d/%v", ranks, v), func(t *testing.T) {
				old := parallel.SetWorkers(1)
				defer parallel.SetWorkers(old)
				serial := runParallelScenario(t, ranks, v)
				for _, workers := range []int{2, 8} {
					parallel.SetWorkers(workers)
					got := runParallelScenario(t, ranks, v)
					if len(got) != len(serial) {
						t.Fatalf("workers=%d produced %d logit vectors, serial %d", workers, len(got), len(serial))
					}
					for i := range got {
						requireExact(t, got[i], serial[i], fmt.Sprintf("workers=%d vector %d", workers, i))
					}
				}
			})
		}
	}
}

// Chunked prefill must extend each rank's assembled-KV mirror instead of
// re-concatenating the cached context: total copied rows stay linear in
// prompt tokens (layers x tokens), with zero mirror rebuilds — the cluster
// form of the zero-rebuild acceptance check.
func TestChunkedPrefillAssemblyIsLinear(t *testing.T) {
	const budget = 8
	w, err := NewWeights(Tiny(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []model.Variant{model.PassKV, model.PassQ} {
		t.Run(v.String(), func(t *testing.T) {
			c, err := NewCluster(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			prompt := make([]int, 64)
			for i := range prompt {
				prompt[i] = (i*3 + 1) % w.Cfg.Model.VocabSize
			}
			var prevAppended int64
			layers := int64(w.Cfg.Model.Layers)
			for at := 0; at < len(prompt); at += budget {
				if _, err := c.Prefill(0, prompt[at:at+budget], v); err != nil {
					t.Fatal(err)
				}
				stats := c.AssemblyStats()
				if stats.Rebuilds != 0 || stats.RebuildRows != 0 {
					t.Fatalf("chunk at %d rebuilt the mirror: %+v", at, stats)
				}
				delta := stats.AppendedRows - prevAppended
				if want := layers * budget; delta != want {
					t.Fatalf("chunk at %d copied %d rows, want %d (chunk tokens x layers, independent of context %d)",
						at, delta, want, at)
				}
				prevAppended = stats.AppendedRows
			}

			// Decode: each step copies exactly the one appended row per layer
			// (on the owner rank), never the context.
			before := c.AssemblyStats().AppendedRows
			for step := 0; step < 3; step++ {
				if _, err := c.Decode(0, 5); err != nil {
					t.Fatal(err)
				}
			}
			after := c.AssemblyStats()
			if got, want := after.AppendedRows-before, 3*layers; got != want {
				t.Fatalf("3 decode steps copied %d rows, want %d", got, want)
			}
			if after.Rebuilds != 0 {
				t.Fatalf("decode rebuilt the mirror: %+v", after)
			}
		})
	}
}
