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

// BenchmarkAccumulateInto times the ring's merge on one rank's share of a
// 512-token prefill chunk of the benchmark model (256 tokens, 8 heads,
// head dim 32), inline and at width 2. ns/element at workers=1 is the
// reading behind accumulateWork, the work AccumulateInto states to the
// pool's size rule per output element.
func BenchmarkAccumulateInto(b *testing.B) {
	const tokens, heads, dh = 256, 8, 32
	rng := rand.New(rand.NewSource(3))
	dst, partial := NewOutput(tokens, heads, dh), NewOutput(tokens, heads, dh)
	for _, o := range []*Output{dst, partial} {
		for i := range o.O.Data {
			o.O.Data[i] = float32(rng.NormFloat64())
		}
		for i := range o.LSE {
			o.LSE[i] = rng.NormFloat64()
		}
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(w))
			for i := 0; i < b.N; i++ {
				AccumulateInto(dst, partial)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens*heads*dh), "ns/element")
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
	m := PartialCausal(1, ctx-1)
	out, sc := NewOutput(1, 8, 64), new(Scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GQAKVInto(out, q, tensorKV(k, v), m, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGQATileKernels times the two register-blocked tile kernels alone
// on one full tile at the benchmark model's geometry (8 query heads per KV
// head, head dim 32), at every tier this host has. The score kernel gets q
// already transposed, as gqaBlock hands it over once per query block. Read
// GFLOP/s against BenchmarkPeakFMA's dp (AVX2) or dp512 (AVX-512) figure.
func BenchmarkGQATileKernels(b *testing.B) {
	const group, dh, n = 8, 32, kvTileRows
	rng := rand.New(rand.NewSource(3))
	q, rows, w := randF64(rng, group*dh), randF64(rng, n*dh), randF64(rng, group*n)
	qt := make([]float64, group*dh)
	transposeQ(qt, q, group, dh)
	scores, maxs := make([]float64, group*n), make([]float64, group)
	acc, denom := make([]float64, group*dh), make([]float64, group)
	for _, tier := range simd.Tiers() {
		prev := simd.SetTier(tier)
		b.Run(fmt.Sprintf("score/tier=%v", tier), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scoreTileQ(q, qt, rows, scores, maxs, group, n, dh, n, 0.5)
			}
			b.ReportMetric(2*group*n*dh*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("pv/tier=%v", tier), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pvTile(w, rows, acc, denom, group, n, dh, n)
			}
			b.ReportMetric(2*group*n*dh*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		simd.SetTier(prev)
	}
}

// BenchmarkSoftmaxTile times the fused max-shift + exp stage on one tile of
// the benchmark model's head group (8 heads × kvTileRows scores) at every
// tier this host has, in ns per element.
func BenchmarkSoftmaxTile(b *testing.B) {
	const group, n = 8, kvTileRows
	rng := rand.New(rand.NewSource(4))
	src, shift := make([]float64, group*n), make([]float64, group)
	for i := range src {
		src[i] = -rng.Float64() * 30
	}
	s := make([]float64, len(src))
	for _, tier := range simd.Tiers() {
		prev := simd.SetTier(tier)
		b.Run(fmt.Sprintf("tier=%v", tier), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(s, src)
				softmaxTile(s, shift, group, n, n)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/(group*n), "ns/elem")
		})
		simd.SetTier(prev)
	}
}

// BenchmarkGQACausalPrefill is the per-rank ring-step shape of the benchmark
// model (bench-gqa8: 8 query heads on 1 KV head, head dim 32): 256 new
// queries attending causally to 1024 KV rows, at the host's tier. Its
// /tier= subtests run the same shape at every tier this host has, in one
// sitting, for the tier-against-tier ratio.
func BenchmarkGQACausalPrefill(b *testing.B) {
	const T, kv, nh, dh = 256, 1024, 8, 32
	rng := rand.New(rand.NewSource(5))
	q := tensor.RandN(rng, T, nh, dh)
	k := tensor.RandN(rng, kv, 1, dh)
	v := tensor.RandN(rng, kv, 1, dh)
	m := PartialCausal(T, kv-T)
	out, sc := NewOutput(T, nh, dh), new(Scratch)
	pairs := 0 // admitted (query, key) pairs; 4*dh flops per pair per head
	for t := 0; t < T; t++ {
		pairs += kv - T + t + 1
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := GQAKVInto(out, q, tensorKV(k, v), m, sc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(4*dh*nh*float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	for _, tier := range simd.Tiers() {
		prev := simd.SetTier(tier)
		b.Run(fmt.Sprintf("tier=%v", tier), run)
		simd.SetTier(prev)
	}
}
