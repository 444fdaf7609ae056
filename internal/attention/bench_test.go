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
