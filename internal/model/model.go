// Package model holds transformer model configurations and the analytic
// compute/communication cost formulas from the paper (Table 3, Table 9, and
// Appendix A). The configurations drive both the functional ring-attention
// layer (tiny configs that preserve the NH/NKV ratios) and the calibrated
// performance model (the full Llama3 405B shape the paper evaluates).
package model

import "fmt"

// Config describes a dense GQA transformer, following the paper's notation
// table (Table 1): NH query heads, NKV key/value heads, head dimension DH,
// model dimension D = NH*DH.
type Config struct {
	Name      string
	Layers    int     // number of transformer blocks (#layers)
	ModelDim  int     // D
	FFNDim    int     // feed-forward hidden dimension
	NumHeads  int     // NH, query heads
	NumKV     int     // NKV, key/value heads
	HeadDim   int     // DH = D / NH
	Params    float64 // W, total parameter count
	ElemBytes float64 // e, bytes per element for QKV communication (2 = bf16)
	VocabSize int     // used only by parameter-count sanity checks
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.ModelDim <= 0 || c.NumHeads <= 0 || c.NumKV <= 0 || c.HeadDim <= 0 {
		return fmt.Errorf("model %q: non-positive dimension", c.Name)
	}
	if c.ModelDim != c.NumHeads*c.HeadDim {
		return fmt.Errorf("model %q: D=%d != NH*DH=%d*%d", c.Name, c.ModelDim, c.NumHeads, c.HeadDim)
	}
	if c.NumHeads%c.NumKV != 0 {
		return fmt.Errorf("model %q: NH=%d not divisible by NKV=%d", c.Name, c.NumHeads, c.NumKV)
	}
	if c.ElemBytes <= 0 {
		return fmt.Errorf("model %q: ElemBytes must be positive", c.Name)
	}
	return nil
}

// KVRatio returns NKV/NH as a float, the message-size advantage of passing
// KV versus Q for one token (before the factor 2 for K and V).
func (c Config) KVRatio() float64 { return float64(c.NumKV) / float64(c.NumHeads) }

// Llama3405B returns the exact configuration from Table 9 of the paper.
// ElemBytes is 2 (bf16) for QKV communication; the paper quantizes only the
// feed-forward weights to fp8.
func Llama3405B() Config {
	return Config{
		Name:      "llama3-405b",
		Layers:    126,
		ModelDim:  16384,
		FFNDim:    53248,
		NumHeads:  128,
		NumKV:     8,
		HeadDim:   128,
		Params:    405e9,
		ElemBytes: 2,
		VocabSize: 128256,
	}
}

// Llama370B returns the Llama3 70B configuration, used for the smaller-model
// sensitivity experiments.
func Llama370B() Config {
	return Config{
		Name:      "llama3-70b",
		Layers:    80,
		ModelDim:  8192,
		FFNDim:    28672,
		NumHeads:  64,
		NumKV:     8,
		HeadDim:   128,
		Params:    70e9,
		ElemBytes: 2,
		VocabSize: 128256,
	}
}

// Llama38B returns the Llama3 8B configuration.
func Llama38B() Config {
	return Config{
		Name:      "llama3-8b",
		Layers:    32,
		ModelDim:  4096,
		FFNDim:    14336,
		NumHeads:  32,
		NumKV:     8,
		HeadDim:   128,
		Params:    8e9,
		ElemBytes: 2,
		VocabSize: 128256,
	}
}

// Tiny returns a small configuration for functional tests. It preserves a
// GQA ratio (NH > 2*NKV) so the heuristics behave like the real model's.
func Tiny() Config {
	return Config{
		Name:      "tiny-gqa",
		Layers:    2,
		ModelDim:  64,
		FFNDim:    128,
		NumHeads:  8,
		NumKV:     2,
		HeadDim:   8,
		Params:    1e6,
		ElemBytes: 2,
		VocabSize: 256,
	}
}

// ---------------------------------------------------------------------------
// Cost formulas (Table 3 and Appendix A).
// ---------------------------------------------------------------------------

// AttnFLOPsPartial returns the attention FLOPs per layer for a partial
// prefill of T new tokens against P cached tokens: 4*T*D*(T+P) (Table 3).
// The formula counts both the QK^T and the PV batched matmuls with
// multiply-add = 2 FLOPs and no causal discount.
func (c Config) AttnFLOPsPartial(T, P int) float64 {
	return 4 * float64(T) * float64(c.ModelDim) * float64(T+P)
}

// AttnFLOPsCausal returns total causal attention FLOPs across all layers for
// a full prefill, with the 1/2 causal-mask discount used by the MFU
// calculation in Appendix A: 1/2 * 4 * B * T^2 * D * #layers.
func (c Config) AttnFLOPsCausal(B, T int) float64 {
	return 0.5 * 4 * float64(B) * float64(T) * float64(T) * float64(c.ModelDim) * float64(c.Layers)
}

// GEMMFLOPs returns total linear-layer FLOPs for B sequences of T tokens:
// 2 * W * T * B (Appendix A / Kaplan et al. approximation).
func (c Config) GEMMFLOPs(B, T int) float64 {
	return 2 * c.Params * float64(T) * float64(B)
}

// TotalPrefillFLOPs returns GEMM + causal attention FLOPs for a full
// prefill, as composed in Appendix A.
func (c Config) TotalPrefillFLOPs(B, T int) float64 {
	return c.GEMMFLOPs(B, T) + c.AttnFLOPsCausal(B, T)
}

// QBytes returns the communication payload of the query tensor for T new
// tokens: T * D * e (Table 3).
func (c Config) QBytes(T int) float64 {
	return float64(T) * float64(c.ModelDim) * c.ElemBytes
}

// KVBytes returns the communication payload of key and value tensors for a
// context of T new plus P cached tokens: 2 * (P+T) * D * (NKV/NH) * e
// (Table 3).
func (c Config) KVBytes(T, P int) float64 {
	return 2 * float64(T+P) * float64(c.ModelDim) * c.KVRatio() * c.ElemBytes
}

// TPCommBytesPerBlock returns the per-transformer-block AllReduce payload of
// tensor parallelism: 2 * T * NH * DH * e = 2 * T * D * e (Table 2, two
// AllReduce per block, one after attention and one after the FFN).
func (c Config) TPCommBytesPerBlock(T int) float64 {
	return 2 * float64(T) * float64(c.ModelDim) * c.ElemBytes
}

// CPCommBytesPerBlock returns the per-transformer-block SendRecv payload of
// context parallelism when passing KV for a full prefill: T * NKV * DH * e
// (Table 2; the factor covers K plus V halves combined as in the paper's
// table, which reports T*NKV*DH per attention layer).
func (c Config) CPCommBytesPerBlock(T int) float64 {
	return float64(T) * float64(c.NumKV) * float64(c.HeadDim) * c.ElemBytes
}

// KVCacheBytesPerToken returns the KV-cache footprint of one token across
// all layers at the given element width: 2 * NKV * DH * layers * e.
func (c Config) KVCacheBytesPerToken() float64 {
	return 2 * float64(c.NumKV) * float64(c.HeadDim) * float64(c.Layers) * c.ElemBytes
}

// DecodeWork is the exact work of one fused decode step, counted from the
// shapes of the executed model (transformer.Weights: the stacked QKV
// projection, the output projection, the stacked gate/up and down FFN
// matrices per layer, then the output head), whose weights and KV cache are
// float32.
type DecodeWork struct {
	GEMMMACs    int64 // projection, FFN and head multiply-adds, every row
	AttnMACs    int64 // query-key pairs × query heads × head dim, for the scores and again for PV
	WeightBytes int64 // the weights one pass of the step's GEMMs streams
	KVBytes     int64 // the K and V rows attention reads
}

// DecodeStepWork returns the work of a decode step of len(ctx) rows, row i
// attending ctx[i] keys (its own included), through every layer and the
// output head. The weights are counted once: what a rank that holds rows of
// the step streams (at B = 1 one rank, at B = 8 both of two).
//
//cplint:allow testonly BenchmarkDecodeStep reports its rates from it, as the rung files' exact work
func (c Config) DecodeStepWork(ctx []int) DecodeWork {
	d, f, hd := int64(c.ModelDim), int64(c.FFNDim), int64(c.HeadDim)
	nh, nkv, layers := int64(c.NumHeads), int64(c.NumKV), int64(c.Layers)
	weights := layers*d*((2*nh+2*nkv)*hd+3*f) + int64(c.VocabSize)*d
	var keys int64
	for _, n := range ctx {
		keys += int64(n)
	}
	return DecodeWork{
		GEMMMACs:    int64(len(ctx)) * weights,
		AttnMACs:    2 * keys * nh * hd * layers,
		WeightBytes: 4 * weights,
		KVBytes:     4 * 2 * keys * nkv * hd * layers,
	}
}

// MissRate returns the KV-cache miss rate T/(T+P) that drives the pass-KV
// versus pass-Q selection (Equation 1).
func MissRate(T, P int) float64 {
	if T+P == 0 {
		return 0
	}
	return float64(T) / float64(T+P)
}

// Variant selects the ring attention algorithm.
type Variant int

const (
	PassKV Variant = iota
	PassQ
	// Auto is not an algorithm but a policy: resolve pass-KV versus pass-Q
	// per prefill from the KV-cache miss rate via ChooseVariant (Equation 1).
	// The execution layers resolve Auto before entering a ring.
	Auto
)

func (v Variant) String() string {
	switch v {
	case PassKV:
		return "pass-KV"
	case PassQ:
		return "pass-Q"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// ChooseVariant implements Equation 1's miss-rate rule: with T new tokens
// against P cached, pass the KV embeddings when the miss rate T/(T+P) is at
// or above 2·NKV/NH (KV is the smaller circulating message), and pass the Q
// embeddings below it. A cold prefill (P = 0, miss rate 1) always selects
// pass-KV; a warm prefix-cache hit drives the miss rate — and the choice —
// down toward pass-Q.
func ChooseVariant(c Config, T, P int) Variant {
	if MissRate(T, P) >= 2*c.KVRatio() {
		return PassKV
	}
	return PassQ
}
