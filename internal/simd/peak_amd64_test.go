//go:build amd64

package simd

import (
	"sync"
	"testing"
)

// BenchmarkPeakFMA measures the single-thread FMA ceiling of the machine it
// runs on — twelve independent register-resident chains, no loads — in
// single and double precision, 256 bits wide (sp, dp) and, on an AVX-512
// host, 512 bits wide (sp512, dp512). It is the denominator of the
// utilisation tables in README.md: BenchmarkDotPanel divides by the sp
// figure, the attention tile kernels by dp at the AVX2 tier and by dp512 at
// the AVX-512 tier. Each case also runs as two goroutines at once (spx2,
// dpx2, sp512x2, dp512x2; GFLOP/s is their sum, and at -cpu 2 or more they
// run in parallel): the gain two of the host's CPUs give over one, which
// with BenchmarkPoolDispatch sets the pool's size rule (parallel.MinWork).
func BenchmarkPeakFMA(b *testing.B) {
	if detected < AVX2 {
		b.Skip("no AVX2+FMA on this machine")
	}
	const passes = 1 << 16
	for _, prec := range []struct {
		name   string
		double bool
		lanes  int
		tier   Tier
	}{{"sp", false, 8, AVX2}, {"dp", true, 4, AVX2}, {"sp512", false, 16, AVX512}, {"dp512", true, 8, AVX512}} {
		for _, g := range []int{1, 2} {
			name := prec.name
			if g > 1 {
				name += "x2"
			}
			b.Run(name, func(b *testing.B) {
				if detected < prec.tier {
					b.Skipf("no %v on this machine", prec.tier)
				}
				peak := peakFMA
				if prec.tier == AVX512 {
					peak = peakFMA512
				}
				var wg sync.WaitGroup
				for range g {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							peak(passes, prec.double)
						}
					}()
				}
				wg.Wait()
				flops := 2 * float64(12*prec.lanes*passes) * float64(b.N*g)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
