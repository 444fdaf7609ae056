// Package tensor provides the minimal dense-tensor substrate used by the
// context-parallel inference engine. Tensors hold per-token, per-head
// embeddings in row-major [Tokens][Heads][Dim] layout, which mirrors the
// shape conventions of the paper (shape(Q) = [T, NH, D/NH], shape(K) =
// shape(V) = [(T+P), NKV, D/NH]).
//
// The package is deliberately small: float32 storage, exact arithmetic
// helpers, deterministic random initialization, and the slicing/concat/pad
// operations the ring-attention algorithms need. There is no automatic
// broadcasting and no GPU backend; everything runs on the host CPU so that
// the distributed algorithms can be verified bit-for-bit against a
// single-device reference.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense [Tokens][Heads][Dim] float32 tensor. The zero value is
// an empty tensor with no storage.
type Tensor struct {
	Tokens int // number of token rows
	Heads  int // number of attention heads at this tensor's granularity
	Dim    int // per-head embedding dimension
	Data   []float32
}

// New returns a zero-initialized tensor of the given shape.
func New(tokens, heads, dim int) *Tensor {
	if tokens < 0 || heads < 0 || dim < 0 {
		panic(fmt.Sprintf("tensor: negative shape [%d %d %d]", tokens, heads, dim))
	}
	return &Tensor{
		Tokens: tokens,
		Heads:  heads,
		Dim:    dim,
		Data:   make([]float32, tokens*heads*dim),
	}
}

// FromData wraps an existing slice as a tensor. The slice length must equal
// tokens*heads*dim; the tensor takes ownership of the slice.
func FromData(tokens, heads, dim int, data []float32) (*Tensor, error) {
	if len(data) != tokens*heads*dim {
		return nil, fmt.Errorf("tensor: data length %d does not match shape [%d %d %d]",
			len(data), tokens, heads, dim)
	}
	return &Tensor{Tokens: tokens, Heads: heads, Dim: dim, Data: data}, nil
}

// Grown returns buf resliced to n elements, reallocating only when its
// capacity is too small; the contents are not kept. It is how the engine's
// per-rank arenas reuse one buffer across commands of varying size.
func Grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Resize reshapes t to [tokens, heads, dim] in place, keeping its storage
// when that is large enough (see Grown; the contents are not kept), and
// returns t.
func (t *Tensor) Resize(tokens, heads, dim int) *Tensor {
	*t = Tensor{Tokens: tokens, Heads: heads, Dim: dim, Data: Grown(t.Data, tokens*heads*dim)}
	return t
}

// RandN fills a new tensor of the given shape with pseudo-normal values from
// the provided source. Passing the same source state reproduces the same
// tensor, which the tests rely on.
func RandN(rng *rand.Rand, tokens, heads, dim int) *Tensor {
	t := New(tokens, heads, dim)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// NumElements returns the total number of scalar elements.
func (t *Tensor) NumElements() int { return t.Tokens * t.Heads * t.Dim }

// Row returns the Dim-length vector for (tok, head) as a subslice of the
// underlying storage. Mutating the returned slice mutates the tensor.
func (t *Tensor) Row(tok, head int) []float32 {
	off := (tok*t.Heads + head) * t.Dim
	return t.Data[off : off+t.Dim]
}

// Row2D returns the full embedding of token tok (all heads concatenated) as
// a subslice of the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Row2D(tok int) []float32 {
	rowLen := t.Heads * t.Dim
	return t.Data[tok*rowLen : (tok+1)*rowLen]
}

// SliceTokens returns a deep copy of token rows [lo, hi).
//
//cplint:allow testonly the ring and kvcache tests (TestPassKVFullPrefillMatchesReference) cut oracle inputs with it
func (t *Tensor) SliceTokens(lo, hi int) *Tensor {
	if lo < 0 || hi > t.Tokens || lo > hi {
		panic(fmt.Sprintf("tensor: slice [%d:%d) out of range for %d tokens", lo, hi, t.Tokens))
	}
	out := New(hi-lo, t.Heads, t.Dim)
	rowLen := t.Heads * t.Dim
	copy(out.Data, t.Data[lo*rowLen:hi*rowLen])
	return out
}

// Gather returns a new tensor whose token rows are t's rows at the given
// indices, in order. Indices may repeat.
func (t *Tensor) Gather(rows []int) *Tensor {
	out := New(len(rows), t.Heads, t.Dim)
	rowLen := t.Heads * t.Dim
	for i, r := range rows {
		if r < 0 || r >= t.Tokens {
			panic(fmt.Sprintf("tensor: gather index %d out of range for %d tokens", r, t.Tokens))
		}
		copy(out.Data[i*rowLen:(i+1)*rowLen], t.Data[r*rowLen:(r+1)*rowLen])
	}
	return out
}

// Concat concatenates tensors along the token dimension. All inputs must
// share Heads and Dim. Nil or zero-token inputs are skipped.
//
//cplint:allow testonly the ring tests (TestPassKVFullPrefillMatchesReference) build each sequence history with it
func Concat(parts ...*Tensor) *Tensor {
	heads, dim := -1, -1
	total := 0
	for _, p := range parts {
		if p == nil || p.Tokens == 0 {
			continue
		}
		if heads == -1 {
			heads, dim = p.Heads, p.Dim
		} else if p.Heads != heads || p.Dim != dim {
			panic(fmt.Sprintf("tensor: concat shape mismatch [%d %d] vs [%d %d]",
				p.Heads, p.Dim, heads, dim))
		}
		total += p.Tokens
	}
	if heads == -1 {
		return New(0, 0, 0)
	}
	out := New(total, heads, dim)
	off := 0
	for _, p := range parts {
		if p == nil || p.Tokens == 0 {
			continue
		}
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// two same-shaped tensors.
//
//cplint:allow testonly the oracle comparisons (TestGQAMatchesReferenceOnRandomMasks) measure deviation with it
func MaxAbsDiff(a, b *Tensor) float64 {
	a.mustSameShape(b)
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// Bytes returns the in-memory payload size of the tensor assuming the given
// element width in bytes (e.g. 2 for bf16, 1 for fp8). The functional layer
// stores float32 but communication accounting uses the deployed precision.
func (t *Tensor) Bytes(elemSize float64) float64 {
	return float64(t.NumElements()) * elemSize
}

// ShapeString renders the shape for error messages and traces.
func (t *Tensor) ShapeString() string {
	return fmt.Sprintf("[%d %d %d]", t.Tokens, t.Heads, t.Dim)
}

func (t *Tensor) mustSameShape(o *Tensor) {
	if t.Tokens != o.Tokens || t.Heads != o.Heads || t.Dim != o.Dim {
		panic(fmt.Sprintf("tensor: shape mismatch %s vs %s", t.ShapeString(), o.ShapeString()))
	}
}

// Dot returns the inner product of two equal-length vectors. It is the
// innermost kernel of the attention implementations.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
