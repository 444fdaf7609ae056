//go:build amd64

package simd

import "testing"

// BenchmarkPeakFMA measures the single-thread FMA ceiling of the machine it
// runs on — twelve independent register-resident chains, no loads — in
// single and double precision, 256 bits wide (sp, dp) and, on an AVX-512
// host, 512 bits wide (sp512, dp512). It is the denominator of the
// utilisation tables in README.md: BenchmarkDotPanel divides by the sp
// figure, the attention tile kernels by dp at the AVX2 tier and by dp512 at
// the AVX-512 tier.
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
		b.Run(prec.name, func(b *testing.B) {
			if detected < prec.tier {
				b.Skipf("no %v on this machine", prec.tier)
			}
			peak := peakFMA
			if prec.tier == AVX512 {
				peak = peakFMA512
			}
			for i := 0; i < b.N; i++ {
				peak(passes, prec.double)
			}
			flops := 2 * float64(12*prec.lanes*passes) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
