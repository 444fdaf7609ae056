package transformer

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/ring"
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

// Each rank's KV cache is its only copy of the context, so KV is copied only
// into what a ring pass ships, and a chunk's copy is linear in what it ships:
// pass-KV copies, per layer and chunk, exactly the rows its blocks carry —
// every rank's cached rows plus its share of the chunk, Σᵢ Lᵢ over the ranks,
// the context so far — while pass-Q, whose KV stays put, copies no row and
// attends one in-place segment per rank and layer. Decode steps copy nothing.
func TestChunkedPrefillAssemblyIsLinear(t *testing.T) {
	const budget, ranks = 8, 2
	w, err := NewWeights(Tiny(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []model.Variant{model.PassKV, model.PassQ} {
		t.Run(v.String(), func(t *testing.T) {
			c, err := NewCluster(w, ranks)
			if err != nil {
				t.Fatal(err)
			}
			prompt := make([]int, 64)
			for i := range prompt {
				prompt[i] = (i*3 + 1) % w.Cfg.Model.VocabSize
			}
			copied := func(s ring.BlockCacheStats) int64 { return s.RebuildRows + s.AppendedRows }
			layers := int64(w.Cfg.Model.Layers)
			assembly := func() ring.BlockCacheStats {
				tel, err := c.Telemetry()
				if err != nil {
					t.Fatal(err)
				}
				return tel.Assembly
			}
			prev := assembly()
			for at := 0; at < len(prompt); at += budget {
				if _, err := c.Prefill(0, prompt[at:at+budget], v); err != nil {
					t.Fatal(err)
				}
				stats := assembly()
				rows, reuses := copied(stats)-copied(prev), stats.Reuses-prev.Reuses
				wantRows, wantReuses := layers*int64(at+budget), int64(0)
				if v == model.PassQ {
					wantRows, wantReuses = 0, layers*ranks
				}
				if rows != wantRows || reuses != wantReuses {
					t.Fatalf("chunk at %d copied %d rows and read %d segments in place, want %d and %d",
						at, rows, reuses, wantRows, wantReuses)
				}
				prev = stats
			}

			for step := 0; step < 3; step++ {
				if _, err := c.Decode(0, 5); err != nil {
					t.Fatal(err)
				}
			}
			if after := assembly(); after != prev {
				t.Fatalf("3 decode steps moved the copy counters: %+v, before %+v", after, prev)
			}
		})
	}
}
