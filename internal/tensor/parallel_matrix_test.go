package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/simd"
)

// The row-blocked parallel matmul must be bit-identical to the serial
// per-row loop at every worker width and for every SIMD setting, across
// shapes on both sides of the pool's size rule (parallel.MinWork): below it
// the sweep runs inline, and past it one token fans its weight rows and many
// tokens fan their token blocks over the pool.
func TestApplyRowsIntoBitIdenticalAcrossWorkersAndSIMD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ rows, cols, tokens int }{
		{8, 8, 1},       // tiny: inline
		{64, 32, 1},     // one-token decode, inline
		{96, 64, 7},     // odd token count
		{64, 100, 33},   // non-multiple-of-four dot length
		{4096, 1024, 1}, // one token at MinWork: the weight rows fan
		{256, 512, 37},  // past MinWork over several blocks: the token blocks fan
	}
	oldW := parallel.SetWorkers(1)
	prevTier := simd.SetTier(simd.Portable)
	defer func() {
		parallel.SetWorkers(oldW)
		simd.SetTier(prevTier)
	}()
	for _, sh := range shapes {
		m := RandMatrix(rng, sh.rows, sh.cols)
		in := make([]float32, sh.tokens*sh.cols)
		for i := range in {
			in[i] = float32(rng.NormFloat64())
		}
		// Reference: serial scalar one-token Mul loop.
		simd.SetTier(simd.Portable)
		parallel.SetWorkers(1)
		ref := make([]float32, sh.tokens*sh.rows)
		for tok := 0; tok < sh.tokens; tok++ {
			m.Mul(ref[tok*sh.rows:(tok+1)*sh.rows], in[tok*sh.cols:(tok+1)*sh.cols], 1, false)
		}
		for _, tier := range []simd.Tier{simd.Portable, prevTier} {
			simd.SetTier(tier)
			for _, workers := range []int{1, 2, 8} {
				parallel.SetWorkers(workers)
				got := make([]float32, sh.tokens*sh.rows)
				before := parallel.Snapshot().Jobs
				m.ApplyRowsInto(got, in, sh.tokens)
				fanned := workers > 1 && parallel.Worth(sh.tokens*sh.rows*sh.cols)
				if jobs := parallel.Snapshot().Jobs - before; (jobs > 0) != fanned {
					t.Fatalf("shape %+v workers=%d: %d pool jobs, fanned by the size rule: %v", sh, workers, jobs, fanned)
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
						t.Fatalf("shape %+v simd=%v workers=%d cell %d: %x != %x",
							sh, tier, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestApplyRowsIntoShapePanics(t *testing.T) {
	m := NewMatrix(4, 3)
	for _, bad := range []struct {
		dst, in []float32
		tokens  int
	}{
		{make([]float32, 7), make([]float32, 6), 2},  // dst too short
		{make([]float32, 8), make([]float32, 5), 2},  // in wrong length
		{make([]float32, 12), make([]float32, 6), 2}, // dst sized for 3 tokens, in for 2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for dst=%d in=%d tokens=%d", len(bad.dst), len(bad.in), bad.tokens)
				}
			}()
			m.ApplyRowsInto(bad.dst, bad.in, bad.tokens)
		}()
	}
}

// RMSNormInto must equal the allocating form and support dst aliasing x.
func TestRMSNormIntoMatchesAndAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float32, 33)
	gain := make([]float32, 33)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		gain[i] = float32(rng.NormFloat64())
	}
	want := RMSNorm(x, gain, 1e-5)
	got := make([]float32, len(x))
	RMSNormInto(got, x, gain, 1e-5)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: %x != %x", i, got[i], want[i])
		}
	}
	aliased := append([]float32(nil), x...)
	RMSNormInto(aliased, aliased, gain, 1e-5)
	for i := range aliased {
		if math.Float32bits(aliased[i]) != math.Float32bits(want[i]) {
			t.Fatalf("aliased element %d: %x != %x", i, aliased[i], want[i])
		}
	}
}

// Blocks must hand out every token exactly once in either split — many
// blocks, or one block marked for a row fan — and the GEMM counters must
// record the pool's size rule's decision and the real output cells: a
// multi-block sweep is one job at parallel.MinWork or more and one serial
// sweep below it, and a single block leaves the decision to its Mul.
func TestBlocksCoverageAndCounters(t *testing.T) {
	oldW := parallel.SetWorkers(4)
	defer parallel.SetWorkers(oldW)
	const cols, rows = 64, 16
	m := NewMatrix(rows, cols)
	for _, tokens := range []int{0, 1, gemmBlockFloats / cols, gemmBlockFloats/cols + 1, 1000, parallel.MinWork/(rows*cols) + 1} {
		hits := make([]int32, tokens)
		blocks := 0
		var mu sync.Mutex
		before := MatmulSnapshot()
		Blocks(tokens, cols, rows*cols, func(_, t0, t1 int, fanRows bool) {
			mu.Lock()
			blocks++
			mu.Unlock()
			if t1-t0 > gemmBlockFloats/cols || t0 >= t1 {
				t.Errorf("tokens=%d: block [%d,%d)", tokens, t0, t1)
			}
			for i := t0; i < t1; i++ {
				hits[i]++ // blocks are disjoint, so unsynchronized
			}
			m.Mul(make([]float32, (t1-t0)*rows), make([]float32, (t1-t0)*cols), t1-t0, fanRows)
		})
		after := MatmulSnapshot()
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("tokens=%d: token %d visited %d times", tokens, i, h)
			}
		}
		if got, want := after.Cells-before.Cells, int64(tokens*rows); got != want {
			t.Fatalf("tokens=%d: %d cells counted, want %d", tokens, got, want)
		}
		jobs, serial := after.Jobs-before.Jobs, after.SerialJobs-before.SerialJobs
		fanned := parallel.Worth(tokens * rows * cols)
		switch {
		case blocks > 1 && fanned && (jobs != 1 || serial != 0): // one fanned token sweep, serial Muls inside
			t.Fatalf("tokens=%d: fanned multi-block sweep counted jobs=%d serial=%d", tokens, jobs, serial)
		case blocks > 1 && !fanned && (jobs != 0 || serial != 1): // one inline token sweep
			t.Fatalf("tokens=%d: inline multi-block sweep counted jobs=%d serial=%d", tokens, jobs, serial)
		case blocks == 1 && jobs+serial != 1: // the single block's Mul decides
			t.Fatalf("tokens=%d: single-block sweep counted jobs=%d serial=%d", tokens, jobs, serial)
		}
	}
}

// Property: the GEMM entry equals the per-cell scalar oracle bitwise for
// random shapes, whether the sweep splits over token blocks or over weight
// rows, at every worker width and SIMD setting. Most shapes are small, below
// the pool's size rule (parallel.MinWork), and run inline; ten trials stack
// enough weight rows to pass the rule, so the token-block fan-out and the
// weight-row fan-out both run at widths 2 and 8.
func TestPropertyMulEqualsPerCellScalarUnderBothSplits(t *testing.T) {
	oldW := parallel.Workers()
	prevTier := simd.SetTier(simd.Detected())
	defer func() {
		parallel.SetWorkers(oldW)
		simd.SetTier(prevTier)
	}()
	rng := rand.New(rand.NewSource(4))
	sawTokenSplit, sawRowFan := false, false
	for trial := 0; trial < 60; trial++ {
		rows, cols := rng.Intn(70)+1, rng.Intn(130)+1
		tokens := rng.Intn(40) + 1
		if trial%3 == 0 {
			tokens += 2 * gemmBlockFloats / cols // several token blocks
		}
		if trial%10 == 0 {
			tokens = min(tokens, BlockTokens(cols)) // one block: the weight rows fan
		}
		if trial%10 == 0 || trial%15 == 3 {
			rows += parallel.MinWork / (tokens * cols) // past the size rule
		}
		m := RandMatrix(rng, rows, cols)
		in := make([]float32, tokens*cols)
		for i := range in {
			in[i] = float32(rng.NormFloat64())
		}
		want := make([]float32, tokens*rows)
		for tok := 0; tok < tokens; tok++ {
			for r := 0; r < rows; r++ {
				want[tok*rows+r] = simd.DotF32Scalar(m.Row(r), in[tok*cols:(tok+1)*cols])
			}
		}
		for _, tier := range []simd.Tier{simd.Portable, simd.Detected()} {
			simd.SetTier(tier)
			for _, workers := range []int{1, 2, 8} {
				parallel.SetWorkers(workers)
				before := MatmulSnapshot()
				got := make([]float32, tokens*rows)
				m.ApplyRowsInto(got, in, tokens)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("[%d %d]x%d simd=%v workers=%d cell %d: %x != %x",
							rows, cols, tokens, tier, workers, i, got[i], want[i])
					}
				}
				if workers > 1 && MatmulSnapshot().Jobs > before.Jobs {
					if tokens > gemmBlockFloats/cols {
						sawTokenSplit = true
					} else {
						sawRowFan = true
					}
				}
			}
		}
	}
	if !sawTokenSplit || !sawRowFan {
		t.Fatalf("shapes did not reach both splits: token=%v rows=%v", sawTokenSplit, sawRowFan)
	}
}

// RoPEHeads over a token's stacked heads must equal RoPE on each head, bit
// for bit, at random positions and head dims (odd dims leave the last
// element alone, as RoPE does).
func TestRoPEHeadsMatchesRoPEExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3, 8, 32, 33, 64, 128} {
		freqs := RoPEFreqs(d, 10000)
		for trial := 0; trial < 20; trial++ {
			heads := rng.Intn(9) + 1
			pos := rng.Intn(1 << 20)
			if trial == 0 {
				pos = 0
			}
			vec := make([]float32, heads*d)
			for i := range vec {
				vec[i] = float32(rng.NormFloat64())
			}
			want := append([]float32(nil), vec...)
			for h := 0; h < heads; h++ {
				RoPE(want[h*d:(h+1)*d], pos, 10000)
			}
			RoPEHeads(vec, d, pos, freqs)
			for i := range vec {
				if math.Float32bits(vec[i]) != math.Float32bits(want[i]) {
					t.Fatalf("d=%d heads=%d pos=%d element %d: %x != %x", d, heads, pos, i, vec[i], want[i])
				}
			}
		}
	}
}
