package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// DecodeInto must equal GQAInto bit for bit on the decode mask — one query at
// or past every cached position of its own sequence — over the kernel grid:
// every head dim 1..96 and 128 (both sides of the vector path's four-lane
// rule), group sizes 1, 3 and 8 on one, two and three KV heads, and row counts
// on both sides of every 32-row tile edge, with the vector path on and off.
// It must write exactly its own row: the block's other rows, pre-filled with
// a sentinel, come back untouched, whatever the row held before.
func TestDecodeIntoMatchesGQAIntoExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rowCounts := []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 3*kvTileRows + 7}
	for _, dh := range kernelDims() {
		for gi, group := range []int{1, 3, 8} {
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
				for _, vector := range []bool{false, true} {
					prev := simd.SetEnabled(vector)
					want, got := decodeOracle(t, q, k, v, row, n), sentinelOutput(T, nh, dh)
					err := DecodeInto(got, q, k, v, row, n)
					simd.SetEnabled(prev)
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
								t.Fatalf("dh=%d group=%d nkv=%d n=%d vector=%v: row %d (decoding %d) O[%d] = %x, want %x",
									dh, group, nkv, n, vector, r, row, i, g, x)
							}
						}
						for i, x := range exp.LSE {
							if g := got.LSE[r*nh+i]; math.Float64bits(g) != math.Float64bits(x) {
								t.Fatalf("dh=%d group=%d nkv=%d n=%d vector=%v: row %d (decoding %d) LSE[%d] = %x, want %x",
									dh, group, nkv, n, vector, r, row, i, g, x)
							}
						}
					}
				}
			}
		}
	}
}

// decodeOracle is the path DecodeInto replaces: a one-row view of the query,
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

func sentinelOutput(tokens, heads, dim int) *Output {
	o := NewOutput(tokens, heads, dim)
	o.O.Fill(-7.5)
	for i := range o.LSE {
		o.LSE[i] = 42
	}
	return o
}

// Shapes that cannot be one decode row of the block are errors, not panics.
func TestDecodeIntoRejectsBadShapes(t *testing.T) {
	q := tensor.New(2, 4, 8)
	k, v := tensor.New(5, 2, 8), tensor.New(5, 2, 8)
	out := NewOutput(2, 4, 8)
	for name, call := range map[string]func() error{
		"row past the block":    func() error { return DecodeInto(out, q, k, v, 2, 5) },
		"negative row":          func() error { return DecodeInto(out, q, k, v, -1, 5) },
		"more rows than k has":  func() error { return DecodeInto(out, q, k, v, 0, 6) },
		"head dim mismatch":     func() error { return DecodeInto(out, q, tensor.New(5, 2, 4), tensor.New(5, 2, 4), 0, 5) },
		"k and v differ":        func() error { return DecodeInto(out, q, k, tensor.New(5, 1, 8), 0, 5) },
		"heads not a multiple":  func() error { return DecodeInto(out, q, tensor.New(5, 3, 8), tensor.New(5, 3, 8), 0, 5) },
		"destination not q's":   func() error { return DecodeInto(NewOutput(3, 4, 8), q, k, v, 0, 5) },
		"v shorter than n rows": func() error { return DecodeInto(out, q, k, tensor.New(4, 2, 8), 0, 5) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// MergeInto must leave in dst exactly what Merge returns, whatever dst held:
// identity cells included (Merge gets them from a fresh output).
func TestMergeIntoOverwritesEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const T, nh, dh = 5, 4, 8
	var parts []*Output
	for p := 0; p < 3; p++ {
		o := NewOutput(T, nh, dh)
		for cell := range o.LSE {
			if cell%5 == 0 || (cell+p)%3 == 0 {
				continue // cell 0, 5, ... attended nowhere: the merged row is identity
			}
			o.LSE[cell] = rng.NormFloat64()
			for d := 0; d < dh; d++ {
				o.O.Data[cell*dh+d] = float32(rng.NormFloat64())
			}
		}
		parts = append(parts, o)
	}
	want := Merge(parts...)
	got := sentinelOutput(T, nh, dh)
	MergeInto(got, parts...)
	for i := range want.O.Data {
		if math.Float32bits(got.O.Data[i]) != math.Float32bits(want.O.Data[i]) {
			t.Fatalf("O[%d] = %x, Merge %x", i, got.O.Data[i], want.O.Data[i])
		}
	}
	for i := range want.LSE {
		if math.Float64bits(got.LSE[i]) != math.Float64bits(want.LSE[i]) {
			t.Fatalf("LSE[%d] = %x, Merge %x", i, got.LSE[i], want.LSE[i])
		}
	}
}

// drain empties f and returns what it held.
func drain[T any](f parallel.FreeList[T]) []*T {
	var out []*T
	for f.Len() > 0 {
		out = append(out, f.Get())
	}
	return out
}

// The free lists outlive every GC, so what they keep must stay bounded by a
// budget-sized call: a decode row over a context whose score stripe alone is
// past scoreBudget, and a chunk with more query rows than
// maxKeptIntervalRows, leave no entry of that size behind. A budget-sized
// call's scratch is kept.
func TestFreeListsDropOversizedEntries(t *testing.T) {
	drain(scratchFree)
	drain(intervalsFree)

	n := 2*scoreBudget + 3*kvTileRows // one KV head, group 1: the stripe is n scores
	q := tensor.New(1, 1, 1)
	k, v := tensor.New(n, 1, 1), tensor.New(n, 1, 1)
	if err := DecodeInto(NewOutput(1, 1, 1), q, k, v, 0, n); err != nil {
		t.Fatal(err)
	}
	for _, s := range drain(scratchFree) {
		if cap(s.scores) > 2*scoreBudget {
			t.Fatalf("a %d-row decode left a %d-score stripe on the free list (bound %d)", n, cap(s.scores), 2*scoreBudget)
		}
	}
	if err := DecodeInto(NewOutput(1, 1, 1), q, k, v, 0, 64); err != nil {
		t.Fatal(err)
	}
	if kept := drain(scratchFree); len(kept) != 1 {
		t.Fatalf("a 64-row decode left %d entries on the free list, want its one", len(kept))
	}

	// Every KV row is padding, so each query row compiles to no interval and
	// the kernel does no work past the compile.
	rows := maxKeptIntervalRows + 1
	m := Mask{QPos: make([]int, rows), QSeq: make([]int, rows), KVPos: []int{-1}, KVSeq: []int{0}}
	qs := tensor.New(rows, 1, 1)
	if err := GQAInto(NewOutput(rows, 1, 1), qs, tensor.New(1, 1, 1), tensor.New(1, 1, 1), m); err != nil {
		t.Fatal(err)
	}
	for _, iv := range drain(intervalsFree) {
		if cap(iv.off) > maxKeptIntervalRows {
			t.Fatalf("a %d-row chunk left %d offsets on the free list (bound %d)", rows, cap(iv.off), maxKeptIntervalRows)
		}
	}
	m = Mask{QPos: m.QPos[:8], QSeq: m.QSeq[:8], KVPos: m.KVPos, KVSeq: m.KVSeq}
	if err := GQAInto(NewOutput(8, 1, 1), qs.SliceTokens(0, 8), tensor.New(1, 1, 1), tensor.New(1, 1, 1), m); err != nil {
		t.Fatal(err)
	}
	if kept := drain(intervalsFree); len(kept) != 1 {
		t.Fatalf("an 8-row chunk left %d compiled masks on the free list, want its one", len(kept))
	}
}
