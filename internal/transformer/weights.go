// Package transformer builds a complete Llama-architecture decoder-only
// transformer on top of the context-parallel substrates: token embeddings,
// RMSNorm, rotary position embeddings, grouped-query attention, SwiGLU
// feed-forward blocks, and an output head. Two execution paths share one set
// of deterministic weights:
//
//   - Forward: a single-device reference that computes exact logits.
//   - Cluster: a context-parallel execution across simulated ranks where
//     tokens are load-balance sharded, every layer's attention runs the ring
//     pass-KV/pass-Q algorithms against per-layer per-rank KV caches, and
//     rotary embeddings are applied by *global* token position (the
//     correctness subtlety the paper's non-contiguous sharding introduces).
//
// The paper serves Llama3 405B; this package is the same architecture at
// laptop scale, which is what lets the repository demonstrate the system
// end-to-end: token ids in, identical logits out, distributed or not.
package transformer

import (
	"fmt"
	"math/rand"

	"repro/internal/attention"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config extends a model configuration with architecture constants.
type Config struct {
	Model    model.Config
	RoPEBase float64 // rotary base, 10000 in Llama
	NormEps  float64 // RMSNorm epsilon
	Seed     int64   // deterministic weight initialization
}

// Tiny returns a laptop-scale Llama-architecture configuration with the
// GQA ratio of the paper's models (NH > 2*NKV).
func Tiny(seed int64) Config {
	m := model.Config{
		Name:      "tiny-llama",
		Layers:    2,
		ModelDim:  32,
		FFNDim:    64,
		NumHeads:  4,
		NumKV:     2,
		HeadDim:   8,
		Params:    1e5,
		ElemBytes: 2,
		VocabSize: 64,
	}
	return Config{Model: m, RoPEBase: 10000, NormEps: 1e-5, Seed: seed}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Model.VocabSize <= 0 {
		return fmt.Errorf("transformer: non-positive vocab %d", c.Model.VocabSize)
	}
	if c.RoPEBase <= 1 {
		return fmt.Errorf("transformer: rope base %v must exceed 1", c.RoPEBase)
	}
	if c.NormEps <= 0 {
		return fmt.Errorf("transformer: norm eps %v must be positive", c.NormEps)
	}
	return nil
}

// layerWeights stacks the projections that share an input — wqkv is the query,
// key and value rows in that order, wGateUp the gate rows then the up rows —
// so each is one GEMM. A stacked matrix draws the same values in the same
// order as its parts drawn one after another: same fan-in, row-major fill.
type layerWeights struct {
	attnNorm, ffnNorm []float32
	wqkv, wo          *tensor.Matrix
	wGateUp, wDown    *tensor.Matrix
}

// Weights holds one model's parameters, shared by the reference and
// distributed paths (every CP rank replicates weights, as in the paper
// where CP does not shard parameters).
type Weights struct {
	Cfg       Config
	embed     *tensor.Matrix // [vocab, D]
	layers    []*layerWeights
	norm      []float32
	head      *tensor.Matrix // [vocab, D]
	ropeFreqs []float64      // per-pair rotary divisors base^(2i/HeadDim)
}

// NewWeights initializes deterministic random weights from cfg.Seed.
func NewWeights(cfg Config) (*Weights, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := cfg.Model
	ones := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	w := &Weights{
		Cfg:       cfg,
		embed:     tensor.RandMatrix(rng, m.VocabSize, m.ModelDim),
		norm:      ones(m.ModelDim),
		head:      tensor.RandMatrix(rng, m.VocabSize, m.ModelDim),
		ropeFreqs: tensor.RoPEFreqs(m.HeadDim, cfg.RoPEBase),
	}
	for l := 0; l < m.Layers; l++ {
		w.layers = append(w.layers, &layerWeights{
			attnNorm: ones(m.ModelDim),
			ffnNorm:  ones(m.ModelDim),
			wqkv:     tensor.RandMatrix(rng, (m.NumHeads+2*m.NumKV)*m.HeadDim, m.ModelDim),
			wo:       tensor.RandMatrix(rng, m.ModelDim, m.NumHeads*m.HeadDim),
			wGateUp:  tensor.RandMatrix(rng, 2*m.FFNDim, m.ModelDim),
			wDown:    tensor.RandMatrix(rng, m.ModelDim, m.FFNDim),
		})
	}
	return w, nil
}

// The sweeps below share one shape: tensor.Blocks hands out token blocks, and
// each block runs norm → GEMM → epilogue on its slot's scratch (normed rows,
// stacked projection outputs, FFN activations) while it is still in L1: the
// caller's own for slot 0 — a rank engine's, kept in its arenas — and
// sweepSlots[w] for pool goroutine or helper slot w. An output row depends
// only on its own hidden row and tensor.Mul's cells on no split, so any width
// is bit-identical to a serial token loop. What a command reads across blocks
// — hidden rows, q/k/v, logits — lives in the rank engine's prefill and decode
// arenas, whose reuse across layers the lifetime rule at the top of
// ring/ring.go (prefill) and ring/decode.go (decode) makes safe although the
// in-process ring circulates blocks by pointer.

var sweepSlots [parallel.Slots][]float32 // entry 0 is unused

// growSlots grows a rank's attention scratch and every pool worker's and
// helper's kernel slots, the attention kernel's and the sweeps', to this
// model's shapes.
func (w *Weights) growSlots(attn *attention.Scratch) {
	m := w.Cfg.Model
	attention.GrowSlots(attn, m.NumHeads/m.NumKV, m.HeadDim)
	parallel.EachWorker(func(slot int) { w.blockScratch(nil, slot) })
}

// blockScratch returns the scratch of a block that runs on slot, own being
// the caller's, grown at once to what the model's largest block needs.
func (w *Weights) blockScratch(own *[]float32, slot int) []float32 {
	buf := own
	if slot != 0 {
		buf = &sweepSlots[slot]
	}
	m := w.Cfg.Model
	d, f := m.ModelDim, m.FFNDim
	qkv := (m.NumHeads + 2*m.NumKV) * m.HeadDim
	cols := max(d, f, m.NumHeads*m.HeadDim)
	n := max(tensor.BlockTokens(d)*(d+qkv), tensor.BlockTokens(cols)*(3*f+2*d))
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// normMul writes m applied to the RMSNorm of hidden rows [t0, t1) into dst,
// the normed rows going through normed.
func (w *Weights) normMul(m *tensor.Matrix, dst, normed, hidden, gain []float32, t0, t1 int, fanRows bool) {
	d := w.Cfg.Model.ModelDim
	normed = normed[:(t1-t0)*d]
	for t := t0; t < t1; t++ {
		tensor.RMSNormInto(normed[(t-t0)*d:][:d], hidden[t*d:][:d], gain, w.Cfg.NormEps)
	}
	m.Mul(dst, normed, t1-t0, fanRows)
}

// The three sweeps below each check for the one-block case — every decode
// step — and call their block body directly: tensor.Blocks would run it
// inline too, but a closure handed to it is heap-allocated per call.

// projectQKVInto computes the layer's query/key/value rows for q.Tokens
// hidden rows: RMSNorm, the stacked projection, then RoPE at the given
// global positions as the rows are copied out. Rows whose position is
// negative (padding) are rotated at 0 and masked out downstream.
func (w *Weights) projectQKVInto(own *[]float32, q, k, v *tensor.Tensor, l int, hidden []float32, pos []int) {
	d := w.Cfg.Model.ModelDim
	if q.Tokens <= tensor.BlockTokens(d) {
		if q.Tokens > 0 {
			w.qkvBlock(w.blockScratch(own, 0), q, k, v, l, hidden, pos, 0, q.Tokens, true)
		}
		return
	}
	wqkv := w.layers[l].wqkv
	tensor.Blocks(q.Tokens, d, wqkv.Rows*wqkv.Cols, func(slot, t0, t1 int, fanRows bool) {
		w.qkvBlock(w.blockScratch(own, slot), q, k, v, l, hidden, pos, t0, t1, fanRows)
	})
}

func (w *Weights) qkvBlock(sc []float32, q, k, v *tensor.Tensor, l int, hidden []float32, pos []int, t0, t1 int, fanRows bool) {
	m := w.Cfg.Model
	lw := w.layers[l]
	qRows, kvRows := m.NumHeads*m.HeadDim, m.NumKV*m.HeadDim
	stacked := sc[:(t1-t0)*lw.wqkv.Rows]
	w.normMul(lw.wqkv, stacked, sc[len(stacked):], hidden, lw.attnNorm, t0, t1, fanRows)
	for t := t0; t < t1; t++ {
		row := stacked[(t-t0)*lw.wqkv.Rows:][:lw.wqkv.Rows]
		tensor.RoPEHeads(row[:qRows+kvRows], m.HeadDim, max(pos[t], 0), w.ropeFreqs)
		copy(q.Row2D(t), row[:qRows])
		copy(k.Row2D(t), row[qRows:qRows+kvRows])
		copy(v.Row2D(t), row[qRows+kvRows:])
	}
}

// finishLayer completes a layer after attention, block by block: attnOut's
// output projection is added into hidden, then the SwiGLU feed-forward block
// (RMSNorm, stacked gate/up projection, SiLU gating, down projection) on top.
func (w *Weights) finishLayer(own *[]float32, l int, hidden []float32, attnOut *tensor.Tensor) {
	m := w.Cfg.Model
	cols := max(m.ModelDim, m.FFNDim, m.NumHeads*m.HeadDim)
	if attnOut.Tokens <= tensor.BlockTokens(cols) {
		if attnOut.Tokens > 0 {
			w.finishBlock(w.blockScratch(own, 0), l, hidden, attnOut, 0, attnOut.Tokens, true)
		}
		return
	}
	lw := w.layers[l]
	perToken := lw.wo.Rows*lw.wo.Cols + lw.wGateUp.Rows*lw.wGateUp.Cols + lw.wDown.Rows*lw.wDown.Cols
	tensor.Blocks(attnOut.Tokens, cols, perToken, func(slot, t0, t1 int, fanRows bool) {
		w.finishBlock(w.blockScratch(own, slot), l, hidden, attnOut, t0, t1, fanRows)
	})
}

func (w *Weights) finishBlock(sc []float32, l int, hidden []float32, attnOut *tensor.Tensor, t0, t1 int, fanRows bool) {
	m := w.Cfg.Model
	lw := w.layers[l]
	d, f, cols := m.ModelDim, m.FFNDim, m.NumHeads*m.HeadDim
	n := t1 - t0
	gateUp, act, proj, normed := sc[:n*2*f], sc[n*2*f:][:n*f], sc[n*3*f:][:n*d], sc[n*(3*f+d):]
	block := hidden[t0*d : t1*d]
	lw.wo.Mul(proj, attnOut.Data[t0*cols:t1*cols], n, fanRows)
	for i, p := range proj {
		block[i] += p
	}
	w.normMul(lw.wGateUp, gateUp, normed, block, lw.ffnNorm, 0, n, fanRows)
	for t := 0; t < n; t++ {
		tensor.SiLUMul(act[t*f:][:f], gateUp[t*2*f:][:f], gateUp[t*2*f+f:][:f])
	}
	lw.wDown.Mul(proj, act, n, fanRows)
	for i, p := range proj {
		block[i] += p
	}
}

// logitsInto computes the output head for tokens hidden rows into a
// [tokens, vocab] buffer: the final norm, then the head projection.
func (w *Weights) logitsInto(own *[]float32, out, hidden []float32, tokens int) {
	m := w.Cfg.Model
	if tokens <= tensor.BlockTokens(m.ModelDim) {
		if tokens > 0 {
			w.normMul(w.head, out, w.blockScratch(own, 0), hidden, w.norm, 0, tokens, true)
		}
		return
	}
	tensor.Blocks(tokens, m.ModelDim, w.head.Rows*w.head.Cols, func(slot, t0, t1 int, fanRows bool) {
		w.normMul(w.head, out[t0*m.VocabSize:t1*m.VocabSize], w.blockScratch(own, slot), hidden, w.norm, t0, t1, fanRows)
	})
}

// embedTokens returns the flat [tokens, D] embedding block; id -1 (padding)
// embeds to zero.
func (w *Weights) embedTokens(ids []int) ([]float32, error) {
	out := make([]float32, len(ids)*w.Cfg.Model.ModelDim)
	if err := w.embedInto(out, ids); err != nil {
		return nil, err
	}
	return out, nil
}

// embedInto is embedTokens into a caller-owned [len(ids), D] buffer, every
// element of which it writes.
func (w *Weights) embedInto(out []float32, ids []int) error {
	m := w.Cfg.Model
	for t, id := range ids {
		row := out[t*m.ModelDim : (t+1)*m.ModelDim]
		if id == -1 {
			clear(row)
			continue
		}
		if id < 0 || id >= m.VocabSize {
			return fmt.Errorf("transformer: token %d outside vocab %d", id, m.VocabSize)
		}
		copy(row, w.embed.Row(id))
	}
	return nil
}
