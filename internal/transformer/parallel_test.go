package transformer

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/ring"
	"repro/internal/testsupport"
)

// runParallelScenario runs the full serving surface on a fresh cluster of
// cfg's model — cold chunked prefill of a prompt three and a half chunks
// long, warm (prefix-seeded) chunked prefill, and a decode tail — and returns
// every logit vector produced, in a fixed order.
func runParallelScenario(t *testing.T, cfg Config, budget, ranks int, v model.Variant) [][]float32 {
	t.Helper()
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prompt := make([]int, 3*budget+budget/2)
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

// runDecodeScenario prefills eight 64-token sessions of cfg's model on a
// fresh two-rank cluster and runs fused decode steps at B = 1, then B = 8,
// returning every logit vector in order.
func runDecodeScenario(t *testing.T, cfg Config) [][]float32 {
	t.Helper()
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, toks := make([]int, 8), make([]int, 8)
	prompt := make([]int, 64)
	for s := range seqs {
		seqs[s] = s + 1
		for i := range prompt {
			prompt[i] = (i*5 + s*11 + 2) % w.Cfg.Model.VocabSize
		}
		if _, err := c.Prefill(seqs[s], prompt, model.PassKV); err != nil {
			t.Fatal(err)
		}
	}
	var all [][]float32
	for _, b := range []int{1, 8} {
		for step := 0; step < 4; step++ {
			out, err := c.DecodeBatch(seqs[:b], toks[:b])
			if err != nil {
				t.Fatal(err)
			}
			for s := range out {
				toks[s] = Argmax(out[s])
			}
			all = append(all, out...)
		}
	}
	return all
}

// Kernel fan-out must be invisible in the results: every ring variant, the
// warm-prefill path, and batched decode produce bit-identical logits at 1,
// 2, and 8 workers. The Tiny model runs below the pool's size rule
// (parallel.MinWork), so its kernels stay inline; on the benchmark model a
// 256-token chunk's token blocks and attention tiles pass it and fan out,
// and fused decode steps at B = 1 and 8 hand their GEMMs' chunks to the rank
// that polls meanwhile (parallel.Poll), on its helper slot. So under -race in
// CI this also exercises the pool and its helpers for data races against the
// rank goroutines.
func TestClusterBitIdenticalAcrossWorkerCounts(t *testing.T) {
	type scenario struct {
		name          string
		cfg           Config
		budget, ranks int
		v             model.Variant
		fans          bool
	}
	var scenarios []scenario
	for _, ranks := range []int{2, 3} {
		for _, v := range []model.Variant{model.PassKV, model.PassQ, model.Auto} {
			scenarios = append(scenarios, scenario{fmt.Sprintf("ranks=%d/%v", ranks, v), Tiny(19), 8, ranks, v, false})
		}
	}
	for _, v := range []model.Variant{model.PassKV, model.PassQ} {
		scenarios = append(scenarios, scenario{fmt.Sprintf("bench-gqa8/ranks=2/%v", v), benchGQA8(), 256, 2, v, true})
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			old := parallel.SetWorkers(1)
			defer parallel.SetWorkers(old)
			serial := runParallelScenario(t, sc.cfg, sc.budget, sc.ranks, sc.v)
			for _, workers := range []int{2, 8} {
				parallel.SetWorkers(workers)
				before := parallel.Snapshot().Jobs
				got := runParallelScenario(t, sc.cfg, sc.budget, sc.ranks, sc.v)
				if sc.fans && parallel.Snapshot().Jobs == before {
					t.Fatalf("workers=%d: the scenario dispatched no pool job", workers)
				}
				requireAllExact(t, got, serial, workers)
			}
		})
	}
	t.Run("bench-gqa8/ranks=2/decode", func(t *testing.T) {
		old := parallel.SetWorkers(1)
		defer parallel.SetWorkers(old)
		serial := runDecodeScenario(t, benchGQA8())
		for _, workers := range []int{2, 8} {
			parallel.SetWorkers(workers)
			before := parallel.Snapshot().HelpedChunks
			got := runDecodeScenario(t, benchGQA8())
			// A helper runs only while a processor is free for it.
			if runtime.GOMAXPROCS(0) > 1 && parallel.Snapshot().HelpedChunks == before {
				t.Fatalf("workers=%d: the decode steps handed no chunk to a polling rank", workers)
			}
			requireAllExact(t, got, serial, workers)
		}
	})
}

// requireAllExact fails unless got equals serial, vector by vector, bit for
// bit.
func requireAllExact(t *testing.T, got, serial [][]float32, workers int) {
	t.Helper()
	if len(got) != len(serial) {
		t.Fatalf("workers=%d produced %d logit vectors, serial %d", workers, len(got), len(serial))
	}
	for i := range got {
		requireExact(t, got[i], serial[i], fmt.Sprintf("workers=%d vector %d", workers, i))
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

// A decode step wakes no parked pool worker: on the benchmark model every
// GEMM of a decode step at B <= 8 (QKV, output projection, gate/up, down,
// head) and its attention state less work than the pool's size rule for a
// parked worker (parallel.MinWork), and the GEMMs more than its rule for a
// polling rank (parallel.MinHelpWork). So at width 2 a DecodeNext at B = 1
// and B = 8 in process hands its GEMMs' chunks only to the rank that polls
// meanwhile, and pool workers steal none; over loopback TCP (whose ranks run
// in this process too, and park) it dispatches no job at all. A 512-token
// PrefillNext chunk still fans its token blocks and attention tiles out.
func TestDecodeStepWakesNoPoolWorker(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	old := parallel.SetWorkers(2)
	defer parallel.SetWorkers(old)
	for _, plane := range []string{"mem", "tcp"} {
		t.Run(plane, func(t *testing.T) {
			var c *Cluster
			if plane == "tcp" {
				c = startLoopbackCluster(t, benchGQA8(), 2, 0)
			} else {
				w, err := NewWeights(benchGQA8())
				if err != nil {
					t.Fatal(err)
				}
				if c, err = NewCluster(w, 2); err != nil {
					t.Fatal(err)
				}
				defer c.Close()
			}
			vocab := benchGQA8().Model.VocabSize
			seqs, toks := make([]int, 8), make([]int, 8)
			prompt := make([]int, 512)
			for s := range seqs {
				seqs[s] = s + 2
				for i := range prompt {
					prompt[i] = (i*7 + s*13 + 1) % vocab
				}
				before := parallel.Snapshot().Jobs
				tok, err := c.PrefillNext(seqs[s], prompt, model.Auto)
				if err != nil {
					t.Fatal(err)
				}
				if jobs := parallel.Snapshot().Jobs - before; jobs == 0 {
					t.Fatalf("a 512-token prefill chunk dispatched no pool job")
				}
				toks[s] = tok
			}
			for _, b := range []int{1, 8} {
				before := parallel.Snapshot()
				for step := 0; step < 3; step++ {
					ids, err := c.DecodeNext(seqs[:b], toks[:b])
					if err != nil {
						t.Fatal(err)
					}
					copy(toks, ids)
				}
				after := parallel.Snapshot()
				jobs, stolen, helped := after.Jobs-before.Jobs, after.ChunksStolen-before.ChunksStolen, after.HelpedChunks-before.HelpedChunks
				if stolen != 0 {
					t.Fatalf("B=%d: 3 decode steps woke pool workers for %d chunks, want 0", b, stolen)
				}
				if plane == "tcp" && (jobs != 0 || helped != 0) {
					t.Fatalf("B=%d: 3 decode steps over TCP dispatched %d pool jobs and %d helped chunks, want 0", b, jobs, helped)
				}
				// A helper runs only while a processor is free for it.
				if plane == "mem" && b == 1 && runtime.GOMAXPROCS(0) > 1 && helped == 0 {
					t.Fatalf("B=1: 3 decode steps in process handed no chunk to the polling rank (%d jobs)", jobs)
				}
			}
		})
	}
}
