package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
	"repro/internal/tensor"
)

// DecodeKVInto over one run must equal GQAInto bit for bit on the decode mask — one query at
// or past every cached position of its own sequence — over the kernel grid:
// every head dim 1..96 and 128 (both sides of the vector path's four-lane
// rule), group sizes 1, 3, 8 and 16 on one, two and three KV heads, and row
// counts on both sides of every 32-row tile edge, at every tier the host has.
// It must write exactly its own row: the block's other rows, pre-filled with
// a sentinel, come back untouched, whatever the row held before.
func TestDecodeIntoMatchesGQAIntoExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rowCounts := []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 3*kvTileRows + 7}
	for _, dh := range kernelDims() {
		for gi, group := range []int{1, 3, 8, 16} {
			nkv := (dh+gi)%3 + 1
			nh := nkv * group
			const T = 3
			q := tensor.RandN(rng, T, nh, dh)
			for _, n := range rowCounts {
				if dh > 16 && dh%16 != 0 && n > 33 {
					continue // the long contexts on a sample of dims keep the grid fast
				}
				// The mirror holds spare capacity past its n live rows.
				k := tensor.RandN(rng, n+2, nkv, dh)
				v := tensor.RandN(rng, n+2, nkv, dh)
				row := rng.Intn(T)
				for _, tier := range simd.Tiers() {
					prev := simd.SetTier(tier)
					want, got := decodeOracle(t, q, k, v, row, n), sentinelOutput(T, nh, dh)
					err := DecodeKVInto(got, q, oneRun(k, v, n), row, new(Scratch))
					simd.SetTier(prev)
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < T; r++ {
						exp := sentinelOutput(1, nh, dh)
						if r == row {
							exp = want
						}
						for i, x := range exp.O.Data {
							if g := got.O.Data[r*nh*dh+i]; math.Float32bits(g) != math.Float32bits(x) {
								t.Fatalf("dh=%d group=%d nkv=%d n=%d tier=%v: row %d (decoding %d) O[%d] = %x, want %x",
									dh, group, nkv, n, tier, r, row, i, g, x)
							}
						}
						for i, x := range exp.LSE {
							if g := got.LSE[r*nh+i]; math.Float64bits(g) != math.Float64bits(x) {
								t.Fatalf("dh=%d group=%d nkv=%d n=%d tier=%v: row %d (decoding %d) LSE[%d] = %x, want %x",
									dh, group, nkv, n, tier, r, row, i, g, x)
							}
						}
					}
				}
			}
		}
	}
}

// decodeOracle is the path DecodeKVInto replaces: a one-row view of the query,
// views of the first n KV rows, the compiled decode mask, GQAInto.
func decodeOracle(t *testing.T, q, k, v *tensor.Tensor, row, n int) *Output {
	t.Helper()
	qRow := q.SliceTokens(row, row+1)
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	seq := make([]int, n)
	out := NewOutput(1, q.Heads, q.Dim)
	err := GQAInto(out, qRow, k.SliceTokens(0, n), v.SliceTokens(0, n),
		Mask{QPos: []int{n}, QSeq: []int{0}, KVPos: pos, KVSeq: seq})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oneRun is KV rows [0, n) of (k, v) as one run.
func oneRun(k, v *tensor.Tensor, n int) KV {
	rowLen := k.Heads * k.Dim
	return KV{Heads: k.Heads, Dim: k.Dim, Runs: []Run{{K: k.Data[:n*rowLen], V: v.Data[:n*rowLen], Rows: n}}}
}

func sentinelOutput(tokens, heads, dim int) *Output {
	o := NewOutput(tokens, heads, dim)
	for i := range o.O.Data {
		o.O.Data[i] = -7.5
	}
	for i := range o.LSE {
		o.LSE[i] = 42
	}
	return o
}

// Shapes that cannot be one decode row of the block are errors, not panics.
func TestDecodeIntoRejectsBadShapes(t *testing.T) {
	q := tensor.New(2, 4, 8)
	k, v := tensor.New(5, 2, 8), tensor.New(5, 2, 8)
	kv := oneRun(k, v, 5)
	out := NewOutput(2, 4, 8)
	sc := new(Scratch)
	for name, call := range map[string]func() error{
		"row past the block": func() error { return DecodeKVInto(out, q, kv, 2, sc) },
		"negative row":       func() error { return DecodeKVInto(out, q, kv, -1, sc) },
		"more rows than k has": func() error {
			return DecodeKVInto(out, q, KV{Heads: 2, Dim: 8, Runs: []Run{{K: k.Data, V: v.Data, Rows: 6}}}, 0, sc)
		},
		"head dim mismatch":    func() error { return DecodeKVInto(out, q, oneRun(tensor.New(5, 2, 4), tensor.New(5, 2, 4), 5), 0, sc) },
		"heads not a multiple": func() error { return DecodeKVInto(out, q, oneRun(tensor.New(5, 3, 8), tensor.New(5, 3, 8), 5), 0, sc) },
		"destination not q's":  func() error { return DecodeKVInto(NewOutput(3, 4, 8), q, kv, 0, sc) },
		"v shorter than n rows": func() error {
			return DecodeKVInto(out, q, KV{Heads: 2, Dim: 8, Runs: []Run{{K: k.Data, V: v.Data[:32], Rows: 5}}}, 0, sc)
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
