// Package workload generates the synthetic inference traffic the paper's
// scenarios describe: cohort traces of multi-turn sessions over a persistent
// KV cache (cp-trace/v2), hit-rate sweeps (Table 4's T + P = const grids),
// context sweeps, and the log-spaced (T, miss rate) grids of Figure 10.
//
// The production traces the paper drew on are not available; these
// generators exercise the same code paths — varying sequence lengths, cache
// hit rates, and batch compositions — with deterministic seeds.
package workload

import (
	"math"
)

// Point is a (new tokens, cached tokens) workload for heuristic sweeps.
type Point struct {
	T, P int
}

// MissRate returns T/(T+P).
func (p Point) MissRate() float64 {
	if p.T+p.P == 0 {
		return 0
	}
	return float64(p.T) / float64(p.T+p.P)
}

// HitRateSweep reproduces Table 4's grid: fixed total context, varying the
// miss rate. Each point keeps T + P = total.
func HitRateSweep(total int, missRates []float64) []Point {
	out := make([]Point, 0, len(missRates))
	for _, mr := range missRates {
		T := int(mr*float64(total) + 0.5)
		if T < 1 {
			T = 1
		}
		if T > total {
			T = total
		}
		out = append(out, Point{T: T, P: total - T})
	}
	return out
}

// Table4MissRates returns the 14 miss rates of Table 4.
func Table4MissRates() []float64 {
	return []float64{0.01, 0.025, 0.0325, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00}
}

// ContextSweep returns the context lengths of Figure 6 (2K to 128K doubling)
// when long is false, or Figure 8 (128K to 1M doubling) when long is true.
func ContextSweep(long bool) []int {
	if long {
		return []int{128_000, 256_000, 512_000, 1_000_000}
	}
	return []int{2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000}
}

// LogGrid returns points covering (T, miss-rate) space on log-spaced axes,
// the sampling scheme behind Figure 10's scatter.
func LogGrid(tMin, tMax int, mrMin, mrMax float64, nT, nMR int) []Point {
	if nT < 2 || nMR < 2 {
		panic("workload: grid needs at least 2 points per axis")
	}
	pts := make([]Point, 0, nT*nMR)
	for i := 0; i < nT; i++ {
		frac := float64(i) / float64(nT-1)
		T := int(float64(tMin) * math.Pow(float64(tMax)/float64(tMin), frac))
		for j := 0; j < nMR; j++ {
			mfrac := float64(j) / float64(nMR-1)
			mr := mrMin * math.Pow(mrMax/mrMin, mfrac)
			total := int(float64(T) / mr)
			if total < T {
				total = T
			}
			pts = append(pts, Point{T: T, P: total - T})
		}
	}
	return pts
}
