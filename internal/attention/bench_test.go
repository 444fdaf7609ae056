package attention

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// benchShape builds a long-context partial-prefill workload: T new queries
// against P cached plus T new KV tokens, Llama-like head geometry scaled to
// a CPU-benchable size.
func benchShape(T, P int) (q, k, v *tensor.Tensor, m Mask) {
	rng := rand.New(rand.NewSource(1))
	q = tensor.RandN(rng, T, 8, 64)
	k = tensor.RandN(rng, P+T, 2, 64)
	v = tensor.RandN(rng, P+T, 2, 64)
	return q, k, v, PartialCausal(T, P)
}

// BenchmarkGQASeedReference is the seed scalar kernel, the baseline every
// BENCH_kernel.json entry is measured against.
func BenchmarkGQASeedReference(b *testing.B) {
	q, k, v, m := benchShape(128, 1920)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reference(q, k, v, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGQA measures the tiled interval-mask kernel across worker counts.
func BenchmarkGQA(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			q, k, v, m := benchShape(128, 1920)
			old := parallel.SetWorkers(w)
			defer parallel.SetWorkers(old)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := GQA(q, k, v, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGQADecodeStep is the batched-decode shape: a block of one-token
// queries, each against a long per-sequence context.
func BenchmarkGQADecodeStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ctx := 2048
	q := tensor.RandN(rng, 1, 8, 64)
	k := tensor.RandN(rng, ctx, 2, 64)
	v := tensor.RandN(rng, ctx, 2, 64)
	m := Decode(ctx)
	out := NewOutput(1, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GQAInto(out, q, k, v, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGQATileKernels times the two register-blocked tile kernels alone
// on one full tile at the benchmark model's geometry (8 query heads per KV
// head, head dim 32), vector path on and off.
func BenchmarkGQATileKernels(b *testing.B) {
	const group, dh, n = 8, 32, kvTileRows
	rng := rand.New(rand.NewSource(3))
	q, rows, w := randF64(rng, group*dh), randF64(rng, n*dh), randF64(rng, group*n)
	scores, maxs := make([]float64, group*n), make([]float64, group)
	acc, denom := make([]float64, group*dh), make([]float64, group)
	for _, on := range []bool{true, false} {
		prev := simd.SetEnabled(on)
		b.Run(fmt.Sprintf("score/simd=%v", on), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scoreTile(q, rows, scores, maxs, group, n, dh, n, 0.5)
			}
			b.ReportMetric(2*group*n*dh*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("pv/simd=%v", on), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pvTile(w, rows, acc, denom, group, n, dh, n)
			}
			b.ReportMetric(2*group*n*dh*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		simd.SetEnabled(prev)
	}
}

// BenchmarkSoftmaxTile times the fused max-shift + exp stage on one tile of
// the benchmark model's head group (8 heads × kvTileRows scores), vector form
// against the portable one, in ns per element.
func BenchmarkSoftmaxTile(b *testing.B) {
	const group, n = 8, kvTileRows
	rng := rand.New(rand.NewSource(4))
	src, shift := make([]float64, group*n), make([]float64, group)
	for i := range src {
		src[i] = -rng.Float64() * 30
	}
	s := make([]float64, len(src))
	for _, on := range []bool{true, false} {
		prev := simd.SetEnabled(on)
		b.Run(fmt.Sprintf("simd=%v", on), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(s, src)
				softmaxTile(s, shift, group, n, n)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/(group*n), "ns/elem")
		})
		simd.SetEnabled(prev)
	}
}

// BenchmarkGQACausalPrefill is the per-rank ring-step shape of the benchmark
// model (bench-gqa8: 8 query heads on 1 KV head, head dim 32): 256 new
// queries attending causally to 1024 KV rows.
func BenchmarkGQACausalPrefill(b *testing.B) {
	const T, kv, nh, dh = 256, 1024, 8, 32
	rng := rand.New(rand.NewSource(5))
	q := tensor.RandN(rng, T, nh, dh)
	k := tensor.RandN(rng, kv, 1, dh)
	v := tensor.RandN(rng, kv, 1, dh)
	m := PartialCausal(T, kv-T)
	out := NewOutput(T, nh, dh)
	pairs := 0 // admitted (query, key) pairs; 4*dh flops per pair per head
	for t := 0; t < T; t++ {
		pairs += kv - T + t + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GQAInto(out, q, k, v, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(4*dh*nh*float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
