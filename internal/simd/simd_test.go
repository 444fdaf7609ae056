package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX dot must be bit-identical to the scalar four-way-unrolled oracle
// at every length, including non-multiple-of-four tails — switching between
// the two paths is a pure throughput decision.
func TestDotF32AVXMatchesScalarExactly(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 8; n <= 96; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		for trial := 0; trial < 8; trial++ {
			for i := range a {
				a[i] = float32(rng.NormFloat64())
				b[i] = float32(rng.NormFloat64())
			}
			got := dotF32AVX(a, b)
			want := DotF32Scalar(a, b)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("dotF32AVX(n=%d) = %x, scalar %x", n, got, want)
			}
		}
	}
}

// DotF32 must dispatch to bit-identical results whether the vector path is
// enabled or not, across the short-vector cutoff.
func TestDotF32DispatchIsBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 40; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		prev := SetEnabled(false)
		scalar := DotF32(a, b)
		SetEnabled(true)
		vec := DotF32(a, b)
		SetEnabled(prev)
		if math.Float32bits(scalar) != math.Float32bits(vec) {
			t.Fatalf("DotF32(n=%d) enabled=%x disabled=%x", n, vec, scalar)
		}
	}
}

func TestSetEnabledCannotForceAVXOn(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if Available() && !hasAVX {
		t.Fatal("SetEnabled(true) enabled vector paths without hardware support")
	}
}

func TestDotF32LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	DotF32(make([]float32, 3), make([]float32, 4))
}

// DotPanel must equal the per-cell scalar oracle bitwise at every row length
// (all tail residues, both sides of the vector cutoff), every weight-row
// count around the eight-row panel and every token count around the
// two-token pass, with the vector path on and off, into a strided dst.
func TestDotPanelMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 96; n++ {
		for rows := 0; rows <= 17; rows++ {
			for tokens := 0; tokens <= 5; tokens++ {
				w := make([]float32, rows*n)
				x := make([]float32, tokens*n)
				for i := range w {
					w[i] = float32(rng.NormFloat64())
				}
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				ldd := rows + 3
				for _, on := range []bool{true, false} {
					dst := make([]float32, tokens*ldd)
					for i := range dst {
						dst[i] = -7
					}
					prev := SetEnabled(on)
					DotPanel(dst, ldd, w, x, n)
					SetEnabled(prev)
					for tk := 0; tk < tokens; tk++ {
						for r := 0; r < ldd; r++ {
							want := float32(-7) // padding columns stay untouched
							if r < rows {
								want = DotF32Scalar(w[r*n:(r+1)*n], x[tk*n:(tk+1)*n])
							}
							if got := dst[tk*ldd+r]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("DotPanel(n=%d rows=%d tokens=%d simd=%v)[%d,%d] = %x, want %x",
									n, rows, tokens, on, tk, r, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestDotPanelShapePanics(t *testing.T) {
	for name, call := range map[string]func(){
		"ragged w":  func() { DotPanel(make([]float32, 8), 2, make([]float32, 7), make([]float32, 4), 4) },
		"ragged x":  func() { DotPanel(make([]float32, 8), 2, make([]float32, 8), make([]float32, 5), 4) },
		"zero n":    func() { DotPanel(nil, 0, nil, nil, 0) },
		"short dst": func() { DotPanel(make([]float32, 3), 2, make([]float32, 8), make([]float32, 8), 4) },
		"narrow ld": func() { DotPanel(make([]float32, 8), 1, make([]float32, 8), make([]float32, 8), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkDotPanel is the GEMM micro-kernel at the forward pass's shapes —
// a 16-token prefill block, a 4-token batched decode step and a 1-token
// decode row — against 256 weight rows of length 256. The per-cell baseline
// is DotF32 in a loop.
func BenchmarkDotPanel(b *testing.B) {
	const n, rows = 256, 256
	rng := rand.New(rand.NewSource(10))
	w := make([]float32, rows*n)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	for _, tokens := range []int{16, 4, 1} {
		x := make([]float32, tokens*n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		dst := make([]float32, tokens*rows)
		flops := float64(2 * tokens * rows * n)
		b.Run(fmt.Sprintf("panel/tokens=%d", tokens), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DotPanel(dst, rows, w, x, n)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("percell/tokens=%d", tokens), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 0; t < tokens; t++ {
					for r := 0; r < rows; r++ {
						dst[t*rows+r] = DotF32(w[r*n:(r+1)*n], x[t*n:(t+1)*n])
					}
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
