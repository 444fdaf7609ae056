package transformer

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/model"
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
// wall: two ranks that never waited on each other would read 2.0, and the
// gap below that is the share of a step its ranks spend asleep at a handoff
// (or, with an uneven owner split, waiting for the rank that has more rows).
// Every step appends a token to every context, so compare two commits at the
// same -benchtime; 512x walks the contexts decode_batch walks.
func BenchmarkDecodeStep(b *testing.B) {
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			w, err := NewWeights(benchGQA8())
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewCluster(w, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			prompt := make([]int, 512)
			seqs, toks := make([]int, batch), make([]int, batch)
			for s := range seqs {
				seqs[s] = s + 2
				for i := range prompt {
					prompt[i] = (i*7 + s*13 + 1) % w.Cfg.Model.VocabSize
				}
				if _, err := c.Prefill(seqs[s], prompt, model.PassKV); err != nil {
					b.Fatal(err)
				}
			}
			step := func(k int) {
				out, err := c.DecodeBatch(seqs[:k], toks[:k])
				if err != nil {
					b.Fatal(err)
				}
				for s := range out {
					toks[s] = Argmax(out[s])
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
			b.ReportAllocs()
			cpu0, t0 := processCPU(b), time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(batch)
			}
			b.StopTimer()
			wall := time.Since(t0)
			b.ReportMetric(float64(processCPU(b)-cpu0)/float64(wall), "busy-cores")
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
