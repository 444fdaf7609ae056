package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/simd"
)

// Matrix is a dense row-major [Rows x Cols] float32 matrix used by the
// transformer substrate's linear layers (weight matrices act on per-token
// embedding vectors).
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix shape [%d %d]", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// RandMatrix fills a matrix with pseudo-normal values scaled by
// 1/sqrt(cols), the usual fan-in initialization.
func RandMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	scale := 1 / math.Sqrt(float64(cols))
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * scale)
	}
	return m
}

// Row returns row r as a subslice of the underlying storage.
func (m *Matrix) Row(r int) []float32 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// gemmBlockFloats sizes a token block: block × Cols float32 is 16 KiB, so a
// block and the eight-row weight panel sweeping it stay in L1 together.
const gemmBlockFloats = 4096

var (
	statMatmulJobs       atomic.Int64 // sweeps handed to the pool
	statMatmulSerialJobs atomic.Int64 // sweeps kept inline
	statMatmulCells      atomic.Int64 // output cells computed by Mul
)

// MatmulStats counts how the forward-pass GEMM uses the shared worker pool,
// exposed through /v1/stats alongside the attention kernel's counters. A
// sweep is one fan-out decision of the pool's size rule (parallel.Worth): a
// multi-block Blocks call, or one block's Mul.
type MatmulStats struct {
	Jobs       int64 `json:"jobs"`        // sweeps handed to the pool (which runs them inline at width 1)
	SerialJobs int64 `json:"serial_jobs"` // sweeps kept inline: below parallel.MinWork
	Cells      int64 `json:"cells"`       // output cells (tokens × weight rows) computed
}

// MatmulSnapshot returns the current GEMM counters.
func MatmulSnapshot() MatmulStats {
	return MatmulStats{
		Jobs:       statMatmulJobs.Load(),
		SerialJobs: statMatmulSerialJobs.Load(),
		Cells:      statMatmulCells.Load(),
	}
}

// Blocks cuts `tokens` activation rows of width cols into L1-sized blocks and
// runs fn(w, t0, t1, fanRows) once per block [t0, t1) on pool slot w; perToken
// is the multiply-adds fn spends on one row, which the pool's size rule
// weighs. A rank holding many rows (prefill) fans its blocks over the worker
// pool with fanRows false: each block's Mul runs serially, so a block has its
// slot to itself, and re-reads the weights from L2 once per block rather than
// once per token. A rank holding one block's worth (decode) runs fn inline
// with fanRows true, and its Mul calls split the weight rows only when one
// GEMM alone passes the rule — on the benchmark model only while another
// in-process rank polls (parallel.Poll), which then runs chunks of it. fn must
// write only its block's rows and compute them the same however the sweep is
// split — then fanned execution is bit-identical to inline at any width.
func Blocks(tokens, cols, perToken int, fn func(w, t0, t1 int, fanRows bool)) {
	bt := BlockTokens(cols)
	if tokens <= bt {
		if tokens > 0 {
			fn(0, 0, tokens, true)
		}
		return
	}
	work := tokens * perToken
	countSweep(work)
	parallel.RunRecycled(blockTasks, (tokens+bt-1)/bt, work, blockTask{fn: fn, tokens: tokens, bt: bt})
}

// countSweep records one fan-out decision of the size rule.
func countSweep(work int) {
	if parallel.Worth(work) {
		statMatmulJobs.Add(1)
	} else {
		statMatmulSerialJobs.Add(1)
	}
}

// blockTask is one multi-block Blocks sweep, and panelTask one fanned Mul:
// recycled, so that a sweep hands the worker pool no fresh closure.
type blockTask struct {
	fn         func(w, t0, t1 int, fanRows bool)
	tokens, bt int
}

type panelTask struct {
	m      *Matrix
	dst, x []float32
}

// The free lists hold more tasks than sweeps can run at once: one per rank
// goroutine and pool worker.
var (
	blockTasks = parallel.NewFreeList[blockTask](256, nil)
	panelTasks = parallel.NewFreeList[panelTask](256, nil)
)

// Run runs blocks [lo, hi) on slot w.
func (t *blockTask) Run(w, lo, hi int) {
	for b := lo; b < hi; b++ {
		t.fn(w, b*t.bt, min((b+1)*t.bt, t.tokens), false)
	}
}

// Run computes the weight rows of panels [lo, hi).
func (t *panelTask) Run(_, lo, hi int) {
	m := t.m
	r0, r1 := lo*simd.PanelRows, min(hi*simd.PanelRows, m.Rows)
	simd.DotPanel(t.dst[r0:], m.Rows, m.Data[r0*m.Cols:r1*m.Cols], t.x, m.Cols)
}

// BlockTokens is the height of one Blocks block for activation rows of width
// cols. A caller on a per-step path checks tokens against it and calls its
// block body directly — Blocks would run it inline too, but only through a
// func value, and a closure handed to Blocks is heap-allocated per call
// because the multi-block branch passes it to the pool.
func BlockTokens(cols int) int { return max(2, gemmBlockFloats/max(cols, 1)&^1) }

// streamWork is the work Mul states per weight of a memory-bound GEMM: a
// float32 weight streams from L3 in 0.2 ns (BenchmarkDotPanel/stream, one
// goroutine: 19–21 GB/s from a 5 MiB matrix), as long as 14 multiply-adds
// take at the sp512 peak of about 70 G/s (BenchmarkPeakFMA, the host
// parallel.MinWork was derived on). Below 14 tokens a GEMM's time is its
// weights' stream, whatever its multiply-adds.
const streamWork = 14

// Mul is the GEMM entry under every matmul in the repo: x is [tokens, Cols]
// flat, dst is [tokens, Rows] flat, and dst[t*Rows+r] becomes the dot of
// weight row r with token row t (simd.DotPanel: the eight-lane fused
// multiply-add cell of numeric contract v2). With fanRows the weight rows
// are split over the worker pool at panel granularity when the work passes
// the pool's size rule (parallel.Worth), the work being its multiply-adds
// or, for fewer than streamWork tokens, the time its weights take to
// stream; a cell depends only on its two operand rows, so no split can
// change a bit.
func (m *Matrix) Mul(dst, x []float32, tokens int, fanRows bool) {
	if len(x) != tokens*m.Cols || len(dst) != tokens*m.Rows {
		panic(fmt.Sprintf("tensor: mul dst=%d x=%d for %d tokens x [%d %d]", len(dst), len(x), tokens, m.Rows, m.Cols))
	}
	statMatmulCells.Add(int64(len(dst)))
	work := max(tokens, streamWork) * m.Rows * m.Cols
	if fanRows {
		countSweep(work)
	}
	if !fanRows || !parallel.Worth(work) {
		simd.DotPanel(dst, m.Rows, m.Data, x, m.Cols)
		return
	}
	parallel.RunRecycled(panelTasks, (m.Rows+simd.PanelRows-1)/simd.PanelRows, work, panelTask{m: m, dst: dst, x: x})
}

// ApplyRowsInto computes dst = [tokens, Rows] of the matrix applied to every
// token row of in ([tokens, Cols] flat) into caller-provided dst. It is Blocks
// over Mul — the same cache-blocked, shape-split GEMM the forward pass runs.
func (m *Matrix) ApplyRowsInto(dst, in []float32, tokens int) {
	if len(in) != tokens*m.Cols || len(dst) != tokens*m.Rows {
		panic(fmt.Sprintf("tensor: applyrows dst=%d in=%d for %d tokens x [%d %d]", len(dst), len(in), tokens, m.Rows, m.Cols))
	}
	Blocks(tokens, m.Cols, m.Rows*m.Cols, func(_, t0, t1 int, fanRows bool) {
		m.Mul(dst[t0*m.Rows:t1*m.Rows], in[t0*m.Cols:t1*m.Cols], t1-t0, fanRows)
	})
}

// RMSNormInto writes the root-mean-square normalization of x scaled by the
// per-channel gain into dst: dst_i = x_i / rms(x) * g_i. dst may alias x.
func RMSNormInto(dst, x, gain []float32, eps float64) {
	if len(x) != len(gain) {
		panic(fmt.Sprintf("tensor: rmsnorm gain %d for input %d", len(gain), len(x)))
	}
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: rmsnorm dst %d for input %d", len(dst), len(x)))
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := 1 / math.Sqrt(ss/float64(len(x))+eps)
	for i, v := range x {
		dst[i] = float32(float64(v)*inv) * gain[i]
	}
}

// RMSNorm is the allocating form of RMSNormInto.
//
//cplint:allow testonly the allocating oracle TestRMSNormIntoMatchesAndAliases checks RMSNormInto against
func RMSNorm(x, gain []float32, eps float64) []float32 {
	out := make([]float32, len(x))
	RMSNormInto(out, x, gain, eps)
	return out
}

// SiLU is the sigmoid-weighted linear unit x*sigmoid(x) used by SwiGLU FFNs.
func SiLU(x float32) float32 {
	return float32(float64(x) / (1 + math.Exp(-float64(x))))
}

// SiLUMul is the SwiGLU gating of one FFN row: act[i] = SiLU(gate[i]) * up[i]
// for every i < len(gate). At the AVX-512 tier whole octets run eight lanes
// wide, the same bits as the loop for every float32 input.
func SiLUMul(act, gate, up []float32) { siluMulAt(simd.Active(), act, gate, up) }

// siluMulAt is SiLUMul at the given tier, which the host must support.
func siluMulAt(tier simd.Tier, act, gate, up []float32) {
	act, up = act[:len(gate)], up[:len(gate)]
	i := 0
	if tier >= simd.AVX512 {
		if i = len(gate) &^ 7; i > 0 {
			siluMul512(&act[0], &gate[0], &up[0], i)
		}
	}
	for ; i < len(gate); i++ {
		act[i] = SiLU(gate[i]) * up[i]
	}
}

// RoPE applies rotary position embeddings in place to one head vector at
// the given absolute position: consecutive pairs (2i, 2i+1) rotate by
// pos/base^(2i/d). The paper's load-balanced sharding makes per-token
// positions non-contiguous on each rank, so rotation must always use the
// token's global position — which is exactly what this function takes.
//
//cplint:allow testonly the per-pair oracle TestRoPEHeadsMatchesRoPEExactly checks RoPEHeads against
func RoPE(vec []float32, pos int, base float64) {
	d := len(vec)
	for i := 0; i+1 < d; i += 2 {
		theta := float64(pos) / math.Pow(base, float64(i)/float64(d))
		sin, cos := math.Sin(theta), math.Cos(theta)
		a, b := float64(vec[i]), float64(vec[i+1])
		vec[i] = float32(a*cos - b*sin)
		vec[i+1] = float32(a*sin + b*cos)
	}
}

// RoPEFreqs returns the per-pair divisors base^(2i/d) that RoPE rotates a
// d-wide head by, built with RoPE's own expression so that RoPEHeads, which
// reads them from the table, stays bit-identical to it.
func RoPEFreqs(d int, base float64) []float64 {
	freqs := make([]float64, d/2)
	for i := 0; i+1 < d; i += 2 {
		freqs[i/2] = math.Pow(base, float64(i)/float64(d))
	}
	return freqs
}

// RoPEHeads applies RoPE at pos to every consecutive d-wide head in vec.
// One token's heads all rotate by the same angles, so sin and cos are taken
// once per pair and shared by every head instead of once per head.
func RoPEHeads(vec []float32, d, pos int, freqs []float64) {
	for p, f := range freqs {
		theta := float64(pos) / f
		sin, cos := math.Sin(theta), math.Cos(theta)
		for i := 2 * p; i+1 < len(vec); i += d {
			a, b := float64(vec[i]), float64(vec[i+1])
			vec[i] = float32(a*cos - b*sin)
			vec[i+1] = float32(a*sin + b*cos)
		}
	}
}
