package attention

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
	"repro/internal/tensor"
	"repro/internal/testsupport"
)

// pagedSplits are the run-length patterns the paged tests cut a context
// into: single rows, odd runs, the cache's 16-row pages, whole tiles, a tile
// and a half, and a mix with an empty run. Whatever is left at the end is a
// trailing partial run.
var pagedSplits = [][]int{{1}, {3}, {16}, {32}, {48}, {5, 16, 0, 1, 32, 7, 48}}

// pagedContexts are the context lengths on both sides of the page, tile and
// long-context boundaries.
var pagedContexts = []int{1, 15, 16, 17, 31, 32, 33, 511, 512, 513}

// pageKV cuts rows [0, n) of k and v into runs whose lengths cycle through
// sizes, each in storage of its own whose spare rows past the run's end hold
// NaN: what a cache page holds past a holder's visible rows is not the
// kernel's to read.
func pageKV(k, v *tensor.Tensor, n int, sizes []int) KV {
	rowLen := k.Heads * k.Dim
	kv := KV{Heads: k.Heads, Dim: k.Dim}
	for lo, i := 0, 0; lo < n; i++ {
		m := min(sizes[i%len(sizes)], n-lo)
		page := func(src []float32) []float32 {
			p := make([]float32, (m+2)*rowLen)
			for j := copy(p, src[lo*rowLen:(lo+m)*rowLen]); j < len(p); j++ {
				p[j] = float32(math.NaN())
			}
			return p
		}
		kv.Runs = append(kv.Runs, Run{K: page(k.Data), V: page(v.Data), Rows: m})
		lo += m
	}
	return kv
}

// pagedGrid calls check for every case of the paged == contiguous grid: head
// dims 1..96 and 128, one and two KV heads, every context length and every
// split, at every tier the host has; group sizes 1, 3, 8 and 16 rotate over
// the dims. The long contexts run on a sample
// of dims, which keeps the grid fast.
func pagedGrid(t *testing.T, check func(name string, q, k, v *tensor.Tensor, n int, kv KV)) {
	rng := rand.New(rand.NewSource(30))
	for _, dh := range kernelDims() {
		for _, nkv := range []int{1, 2} {
			group := []int{1, 3, 8, 16}[(dh+nkv)%4]
			q := tensor.RandN(rng, 3, nkv*group, dh)
			for _, n := range pagedContexts {
				if n > 33 && dh%16 != 0 && dh > 4 {
					continue
				}
				k, v := tensor.RandN(rng, n, nkv, dh), tensor.RandN(rng, n, nkv, dh)
				for _, split := range pagedSplits {
					kv := pageKV(k, v, n, split)
					for _, tier := range simd.Tiers() {
						prev := simd.SetTier(tier)
						check(fmt.Sprintf("dh=%d nkv=%d group=%d n=%d runs=%v tier=%v", dh, nkv, group, n, split, tier), q, k, v, n, kv)
						simd.SetTier(prev)
					}
				}
			}
		}
	}
}

func requireSameOutput(t *testing.T, name string, got, want *Output) {
	t.Helper()
	for i := range want.O.Data {
		if math.Float32bits(got.O.Data[i]) != math.Float32bits(want.O.Data[i]) {
			t.Fatalf("%s: O[%d] = %x over runs, %x contiguous", name, i, got.O.Data[i], want.O.Data[i])
		}
	}
	for i := range want.LSE {
		if math.Float64bits(got.LSE[i]) != math.Float64bits(want.LSE[i]) {
			t.Fatalf("%s: LSE[%d] = %x over runs, %x contiguous", name, i, got.LSE[i], want.LSE[i])
		}
	}
}

// Reading KV in place changes nothing: the decode entry over a run list —
// cache pages of any size, a trailing partial run, empty runs, spare rows of
// NaN behind every run — equals DecodeKVInto over the same rows as one run,
// bit for bit, over the whole grid.
func TestDecodeKVIntoMatchesContiguousExactly(t *testing.T) {
	sc := new(Scratch)
	pagedGrid(t, func(name string, q, k, v *tensor.Tensor, n int, kv KV) {
		row := n % q.Tokens
		want, got := NewOutput(q.Tokens, q.Heads, q.Dim), NewOutput(q.Tokens, q.Heads, q.Dim)
		if err := DecodeKVInto(want, q, oneRun(k, v, n), row, sc); err != nil {
			t.Fatal(err)
		}
		if err := DecodeKVInto(got, q, kv, row, sc); err != nil {
			t.Fatal(err)
		}
		requireSameOutput(t, name, got, want)
	})
}

// The masked entry over a run list equals GQAInto over the same rows as one
// tensor, bit for bit, over the whole grid: queries that cut the context in
// the middle of a run, padding rows, and on short contexts several sequences
// interleaved.
func TestGQAKVIntoMatchesContiguousExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := new(Scratch)
	pagedGrid(t, func(name string, q, k, v *tensor.Tensor, n int, kv KV) {
		m := randomMask(rng, q.Tokens, n, n%2 == 0)
		if n > 33 {
			m = PartialCausal(q.Tokens, n-q.Tokens)
			m.QPos[0] = n / 2
			for j := 0; j < n; j += 5 {
				m.KVPos[j] = -1
			}
		}
		want, err := GQA(q, k, v, m)
		if err != nil {
			t.Fatal(err)
		}
		got := NewOutput(q.Tokens, q.Heads, q.Dim)
		if err := GQAKVInto(got, q, kv, m, sc); err != nil {
			t.Fatal(err)
		}
		requireSameOutput(t, name, got, want)
	})
}

// A decode step attends every visiting row over its sequence's pages: the
// entry must allocate nothing once the kernel scratch is warm.
func TestDecodeKVIntoAllocatesNothing(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	rng := rand.New(rand.NewSource(32))
	const n, nkv, group, dh = 513, 2, 4, 32
	q := tensor.RandN(rng, 2, nkv*group, dh)
	kv := pageKV(tensor.RandN(rng, n, nkv, dh), tensor.RandN(rng, n, nkv, dh), n, []int{16})
	out, sc := NewOutput(2, nkv*group, dh), new(Scratch)
	if allocs := testing.AllocsPerRun(64, func() {
		if err := DecodeKVInto(out, q, kv, 1, sc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a decode row over %d pages allocates %v objects", len(kv.Runs), allocs)
	}
}

// Operands that do not hold the rows they claim are errors, not panics.
func TestKVEntriesRejectBadRuns(t *testing.T) {
	q := tensor.New(1, 4, 8)
	out, sc := NewOutput(1, 4, 8), new(Scratch)
	good := Run{K: make([]float32, 3*16), V: make([]float32, 3*16), Rows: 3}
	for name, kv := range map[string]KV{
		"k short of its rows":  {Heads: 2, Dim: 8, Runs: []Run{good, {K: make([]float32, 15), V: make([]float32, 16), Rows: 1}}},
		"v short of its rows":  {Heads: 2, Dim: 8, Runs: []Run{{K: good.K, V: good.V[:2*16], Rows: 3}}},
		"negative rows":        {Heads: 2, Dim: 8, Runs: []Run{{Rows: -1}}},
		"head dim mismatch":    {Heads: 2, Dim: 4, Runs: []Run{good}},
		"heads not a multiple": {Heads: 3, Dim: 8, Runs: []Run{good}},
		"no kv heads":          {Heads: 0, Dim: 8, Runs: []Run{good}},
	} {
		if err := DecodeKVInto(out, q, kv, 0, sc); err == nil {
			t.Errorf("DecodeKVInto, %s: accepted", name)
		}
		if err := GQAKVInto(out, q, kv, PartialCausal(1, 2), sc); err == nil {
			t.Errorf("GQAKVInto, %s: accepted", name)
		}
	}
	if err := GQAKVInto(out, q, KV{Heads: 2, Dim: 8, Runs: []Run{good}}, PartialCausal(1, 3), sc); err == nil {
		t.Error("a mask over more rows than the runs hold: accepted")
	}
}
