//go:build amd64

package simd

import "testing"

// BenchmarkPeakFMA measures the single-thread FMA ceiling of the machine it
// runs on — twelve independent register-resident 256-bit chains, no loads —
// in single (8 lanes) and double (4 lanes) precision. It is the denominator
// of the utilisation tables in README.md: BenchmarkDotPanel divides by the
// sp figure, the attention tile kernels by the dp figure.
func BenchmarkPeakFMA(b *testing.B) {
	if !hasAVX {
		b.Skip("no AVX2+FMA on this machine")
	}
	const passes = 1 << 16
	for _, prec := range []struct {
		name   string
		double bool
		lanes  int
	}{{"sp", false, 8}, {"dp", true, 4}} {
		b.Run(prec.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				peakFMA(passes, prec.double)
			}
			flops := 2 * float64(12*prec.lanes*passes) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
