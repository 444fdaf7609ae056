package transformer

import (
	"fmt"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/parallel"
)

// benchGQA8 is the registered benchmark's model (benchmark/spec.go): 2 layers,
// D = 256, 8 query heads on 1 KV head, head dim 32.
func benchGQA8() Config {
	return Config{
		Model: model.Config{
			Name: "bench-gqa8", Layers: 2, ModelDim: 256, FFNDim: 512,
			NumHeads: 8, NumKV: 1, HeadDim: 32, VocabSize: 512,
			ElemBytes: 2, Params: 1.2e6,
		},
		RoPEBase: 10000, NormEps: 1e-5, Seed: 1,
	}
}

// processCPU is the user plus system time this process has consumed.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkDecodeStep times one fused Cluster.DecodeBatch step of B resident
// sessions (512-token contexts, two ranks, the mailbox plane, no recorder) —
// decode_batch's and the prefill workloads' steady state without the HTTP
// stack. Besides ns/step and allocs/step it reports busy cores, process CPU ÷
// wall. A rank polls at a handoff (transport.PollBudget) and polling counts as
// busy, so on the mailbox plane it reads about 2.0 however long the ranks wait
// on each other; it no longer measures time asleep at a handoff. Over loopback
// (BenchmarkDecodeStepTCP), where the ranks park, the gap below 2.0 still
// does. It also reports the kernel pool's dispatches, from parallel.Snapshot
// deltas: jobs/step, the fan-outs a step hands the pool, and
// stolen-chunks/step and helped-chunks/step against chunks/step, how many of
// their chunks a pool worker or a polling rank (parallel.Poll) rather than the
// dispatching rank ran. gflop/step is the step's exact work
// (model.DecodeStepWork: GEMMs and attention at the contexts of that step, two
// flops a multiply-add) and weight-GB/s one pass over the weights a step at
// the mean step time. median-ns/step is the median of the steps timed one by
// one: ns/op is their mean, which a few steps stalled by a collection or a
// descheduled rank pull up. Every step appends a token to every context, so
// compare two commits at the same -benchtime; 512x walks the contexts
// decode_batch walks.
func BenchmarkDecodeStep(b *testing.B) {
	benchDecodeStep(b, func(b *testing.B) *Cluster {
		w, err := NewWeights(benchGQA8())
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewCluster(w, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	})
}

// BenchmarkDecodeStepTCP is BenchmarkDecodeStep with both ranks behind
// loopback sockets (two RunWorker ranks in this process, ring_tcp's plane):
// the same shapes and step, plus every command, reply and ring hop through
// the wire codec, a CRC and a socket. Busy cores and the pool counters cover
// the workers too, since they share the process.
func BenchmarkDecodeStepTCP(b *testing.B) {
	benchDecodeStep(b, func(b *testing.B) *Cluster { return startLoopbackCluster(b, benchGQA8(), 2, 0) })
}

// benchDecodeStep runs the decode-step benchmark at B = 1 and 8 on a
// two-rank cluster from dial.
func benchDecodeStep(b *testing.B, dial func(b *testing.B) *Cluster) {
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			c := dial(b)
			vocab := benchGQA8().Model.VocabSize
			prompt := make([]int, 512)
			seqs, toks := make([]int, batch), make([]int, batch)
			for s := range seqs {
				seqs[s] = s + 2
				for i := range prompt {
					prompt[i] = (i*7 + s*13 + 1) % vocab
				}
				if _, err := c.Prefill(seqs[s], prompt, model.PassKV); err != nil {
					b.Fatal(err)
				}
			}
			ctx := make([]int, batch) // keys each session's next row attends
			for s := range ctx {
				ctx[s] = len(prompt) + 1
			}
			var work model.DecodeWork // summed over the timed steps
			step := func(k int) {
				out, err := c.DecodeBatch(seqs[:k], toks[:k])
				if err != nil {
					b.Fatal(err)
				}
				for s := range out {
					toks[s] = Argmax(out[s])
					ctx[s]++
				}
			}
			// decode_batch's ramp: session k joins one step after session
			// k-1, which is what sets the owner split of the fused steps
			// (sessions 2..9 staggered this way split 5/3 on every step; in
			// lockstep they would split 7/1).
			for k := 1; k < batch; k++ {
				step(k)
			}
			for i := 0; i < 16; i++ {
				step(batch) // warm the pools, the mirrors and the reply frames
			}
			laps := make([]time.Duration, b.N)
			b.ReportAllocs()
			pool0, cpu0, t0 := parallel.Snapshot(), processCPU(b), time.Now()
			b.ResetTimer()
			for i := range laps {
				w := benchGQA8().Model.DecodeStepWork(ctx)
				lap := time.Now()
				step(batch)
				laps[i] = time.Since(lap)
				work.GEMMMACs += w.GEMMMACs + w.AttnMACs
				work.WeightBytes += w.WeightBytes
			}
			b.StopTimer()
			wall, pool := time.Since(t0), parallel.Snapshot()
			slices.Sort(laps)
			b.ReportMetric(float64(laps[len(laps)/2]), "median-ns/step")
			b.ReportMetric(float64(processCPU(b)-cpu0)/float64(wall), "busy-cores")
			perStep := func(v, v0 int64) float64 { return float64(v-v0) / float64(b.N) }
			b.ReportMetric(perStep(pool.Jobs, pool0.Jobs), "jobs/step")
			b.ReportMetric(perStep(pool.Chunks, pool0.Chunks), "chunks/step")
			b.ReportMetric(perStep(pool.ChunksStolen, pool0.ChunksStolen), "stolen-chunks/step")
			b.ReportMetric(perStep(pool.HelpedChunks, pool0.HelpedChunks), "helped-chunks/step")
			b.ReportMetric(2*float64(work.GEMMMACs)/1e9/float64(b.N), "gflop/step")
			b.ReportMetric(float64(work.WeightBytes)/float64(wall), "weight-GB/s")
		})
	}
}

// BenchmarkPrefillChunk is prefill_full's shape without the HTTP stack: one op
// prefills a unique 2048-token prompt as four budget-aligned 512-token chunks
// (model.Auto, which picks pass-KV for all four) on two ranks over the
// mailbox plane with no recorder, then drops the sequence. /all asks for
// every row's logits (Prefill), /last for the sampled row alone
// (PrefillLast, what serving runs), whose last layer attends, projects and
// runs the FFN and head for that row only. B/op is the prefill's transient
// allocation plus what it keeps (KV pages, mirror growth, the logits handed
// to the caller); busy cores is process CPU ÷ wall, as in
// BenchmarkDecodeStep.
func BenchmarkPrefillChunk(b *testing.B) {
	for _, mode := range []string{"all", "last"} {
		b.Run(mode, func(b *testing.B) {
			const prompt, chunk = 2048, 512
			w, err := NewWeights(benchGQA8())
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewCluster(w, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			toks := make([]int, prompt)
			op := func(i int) {
				for t := range toks {
					toks[t] = (t*7 + i*13 + 1) % w.Cfg.Model.VocabSize
				}
				for lo := 0; lo < prompt; lo += chunk {
					var err error
					if mode == "all" {
						_, err = c.Prefill(2, toks[lo:lo+chunk], model.Auto)
					} else {
						_, err = c.PrefillLast(2, toks[lo:lo+chunk], model.Auto)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				c.Drop(2)
			}
			op(0) // warm the pools and the rank engines' buffers
			b.ReportAllocs()
			cpu0, t0 := processCPU(b), time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i + 1)
			}
			b.StopTimer()
			wall := time.Since(t0)
			b.ReportMetric(float64(processCPU(b)-cpu0)/float64(wall), "busy-cores")
		})
	}
}

// BenchmarkPersistentPrefill is prefill_persistent's shape without the HTTP
// stack: a 1536-token prefix, prefilled once as three 512-token chunks and
// detached, is adopted (AdoptPrefix, which shares its pages) by a fresh
// sequence whose unique 256-token suffix prefills as one chunk under
// model.Auto — Equation 1 picks pass-Q at this 14 % miss rate — and the
// sequence is dropped. /all asks for every suffix row's logits (Prefill),
// /next for the sampled row's token (PrefillNext, what serving runs), whose
// last layer attends only that row on every rank. /served runs a served
// request's whole shape sequence, as prefill_persistent does over HTTP: after
// the suffix's PrefillNext, the continuation prefills the sampled token as a
// one-token chunk and decodes 31 more, so each pass-Q chunk has another
// length than the last. B/op and busy cores read as in
// BenchmarkPrefillChunk.
func BenchmarkPersistentPrefill(b *testing.B) {
	for _, mode := range []string{"all", "next", "served"} {
		b.Run(mode, func(b *testing.B) {
			const prefix, suffix, chunk, steps = 1536, 256, 512, 31
			w, err := NewWeights(benchGQA8())
			if err != nil {
				b.Fatal(err)
			}
			if v := model.ChooseVariant(w.Cfg.Model, suffix, prefix); v != model.PassQ {
				b.Fatalf("Equation 1 picks %v for the suffix, want pass-Q", v)
			}
			c, err := NewCluster(w, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			toks := make([]int, prefix)
			for t := range toks {
				toks[t] = (t*5 + 3) % w.Cfg.Model.VocabSize
			}
			for lo := 0; lo < prefix; lo += chunk {
				if _, err := c.PrefillNext(1, toks[lo:lo+chunk], model.Auto); err != nil {
					b.Fatal(err)
				}
			}
			pre, err := c.DetachPrefix(1, prefix)
			if err != nil {
				b.Fatal(err)
			}
			defer pre.Release()
			c.Drop(1)
			miss := make([]int, suffix)
			seq, tok := []int{2}, []int{0}
			op := func(i int) {
				for t := range miss {
					miss[t] = (t*7 + i*13 + 1) % w.Cfg.Model.VocabSize
				}
				if err := c.AdoptPrefix(2, pre); err != nil {
					b.Fatal(err)
				}
				if mode == "all" {
					_, err = c.Prefill(2, miss, model.Auto)
				} else {
					tok[0], err = c.PrefillNext(2, miss, model.Auto)
				}
				if err != nil {
					b.Fatal(err)
				}
				if mode == "served" {
					if tok[0], err = c.PrefillNext(2, tok, model.Auto); err != nil {
						b.Fatal(err)
					}
					for k := 0; k < steps; k++ {
						ids, err := c.DecodeNext(seq, tok)
						if err != nil {
							b.Fatal(err)
						}
						tok[0] = ids[0]
					}
				}
				c.Drop(2)
			}
			op(0) // warm the pools and the rank engines' buffers
			b.ReportAllocs()
			cpu0, t0 := processCPU(b), time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i + 1)
			}
			b.StopTimer()
			wall := time.Since(t0)
			b.ReportMetric(float64(processCPU(b)-cpu0)/float64(wall), "busy-cores")
		})
	}
}
