package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

const tol = 1e-5

func randQKV(rng *rand.Rand, T, ctx, nh, nkv, dh int) (q, k, v *tensor.Tensor) {
	q = tensor.RandN(rng, T, nh, dh)
	k = tensor.RandN(rng, ctx, nkv, dh)
	v = tensor.RandN(rng, ctx, nkv, dh)
	return
}

func TestFullCausalFirstTokenAttendsOnlyItself(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q, k, v := randQKV(rng, 4, 4, 2, 1, 8)
	out, err := GQA(q, k, v, FullCausal(4))
	if err != nil {
		t.Fatal(err)
	}
	// Token 0 attends only to key 0, so its output is exactly v[0].
	for h := 0; h < 2; h++ {
		for d := 0; d < 8; d++ {
			if diff := math.Abs(float64(out.O.Row(0, h)[d]) - float64(v.Row(0, 0)[d])); diff > tol {
				t.Fatalf("token0 head%d dim%d = %v, want v0 = %v", h, d, out.O.Row(0, h)[d], v.Row(0, 0)[d])
			}
		}
	}
	// LSE of token 0 is the self-score: q0·k0/sqrt(dh).
	scale := 1 / math.Sqrt(8)
	for h := 0; h < 2; h++ {
		want := float64(tensor.Dot(q.Row(0, h), k.Row(0, 0))) * scale
		if diff := math.Abs(out.LSE[h] - want); diff > tol {
			t.Fatalf("token0 LSE = %v, want %v", out.LSE[h], want)
		}
	}
}

func TestUniformValuesGiveUniformOutput(t *testing.T) {
	// With all V rows identical, attention output must equal that row no
	// matter what the scores are.
	rng := rand.New(rand.NewSource(2))
	q, k, _ := randQKV(rng, 5, 5, 4, 2, 4)
	v := tensor.New(5, 2, 4)
	for tok := 0; tok < 5; tok++ {
		for h := 0; h < 2; h++ {
			copy(v.Row(tok, h), []float32{1, 2, 3, 4})
		}
	}
	out, err := GQA(q, k, v, FullCausal(5))
	if err != nil {
		t.Fatal(err)
	}
	for tok := 0; tok < 5; tok++ {
		for h := 0; h < 4; h++ {
			row := out.O.Row(tok, h)
			for d, want := range []float32{1, 2, 3, 4} {
				if math.Abs(float64(row[d])-float64(want)) > tol {
					t.Fatalf("output (%d,%d) = %v, want [1 2 3 4]", tok, h, row)
				}
			}
		}
	}
}

func TestGQAHeadGrouping(t *testing.T) {
	// With NKV=1, every query head must read the same K/V; craft K so that
	// key 1 dominates for a known query, then all heads of that query focus
	// on v[1].
	nh, dh := 4, 4
	q := tensor.New(1, nh, dh)
	for h := 0; h < nh; h++ {
		q.Row(0, h)[0] = 10
	}
	k := tensor.New(3, 1, dh)
	k.Row(1, 0)[0] = 10 // huge score for key 1
	v := tensor.RandN(rand.New(rand.NewSource(3)), 3, 1, dh)
	out, err := GQA(q, k, v, Mask{
		QPos: []int{2}, QSeq: []int{0},
		KVPos: []int{0, 1, 2}, KVSeq: []int{0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < nh; h++ {
		for d := 0; d < dh; d++ {
			if math.Abs(float64(out.O.Row(0, h)[d])-float64(v.Row(1, 0)[d])) > 1e-3 {
				t.Fatalf("head %d did not focus on key 1: got %v want %v",
					h, out.O.Row(0, h), v.Row(1, 0))
			}
		}
	}
}

func TestPartialCausalMatchesSuffixOfFull(t *testing.T) {
	// Computing full prefill over P+T tokens and taking the last T rows must
	// equal a partial prefill of T new tokens against P cached tokens.
	rng := rand.New(rand.NewSource(4))
	P, T := 6, 4
	q, k, v := randQKV(rng, P+T, P+T, 4, 2, 8)
	full, err := GQA(q, k, v, FullCausal(P+T))
	if err != nil {
		t.Fatal(err)
	}
	qNew := q.SliceTokens(P, P+T)
	partial, err := GQA(qNew, k, v, PartialCausal(T, P))
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(full.O.SliceTokens(P, P+T), partial.O); d > tol {
		t.Fatalf("partial prefill deviates from full suffix by %v", d)
	}
}

func TestDecodeIsPartialWithTOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := 9
	q, k, v := randQKV(rng, 1, ctx, 2, 2, 4)
	dec, err := GQA(q, k, v, PartialCausal(1, ctx-1))
	if err != nil {
		t.Fatal(err)
	}
	part, err := GQA(q, k, v, PartialCausal(1, ctx-1))
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(dec.O, part.O); d != 0 {
		t.Fatalf("Decode mask differs from PartialCausal(1, ctx-1) by %v", d)
	}
}

func TestPaddingRowsIgnored(t *testing.T) {
	// Adding padding KV rows (position -1) with huge values must not change
	// the result.
	rng := rand.New(rand.NewSource(6))
	q, k, v := randQKV(rng, 3, 3, 2, 1, 4)
	base, err := GQA(q, k, v, FullCausal(3))
	if err != nil {
		t.Fatal(err)
	}
	pad := tensor.New(2, 1, 4)
	for i := range pad.Data {
		pad.Data[i] = 100
	}
	k2 := tensor.Concat(k, pad)
	v2 := tensor.Concat(v, pad)
	m := FullCausal(3)
	m.KVPos = append(m.KVPos, -1, -1)
	m.KVSeq = append(m.KVSeq, 0, 0)
	padded, err := GQA(q, k2, v2, m)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(base.O, padded.O); d != 0 {
		t.Fatalf("padding rows leaked into attention, diff %v", d)
	}
}

func TestCrossSequenceIsolation(t *testing.T) {
	// Two fused sequences must not attend to each other: computing them
	// fused must equal computing them separately.
	rng := rand.New(rand.NewSource(7))
	t1, t2 := 4, 3
	q1, k1, v1 := randQKV(rng, t1, t1, 2, 1, 4)
	q2, k2, v2 := randQKV(rng, t2, t2, 2, 1, 4)
	o1, err := GQA(q1, k1, v1, FullCausal(t1))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := GQA(q2, k2, v2, FullCausal(t2))
	if err != nil {
		t.Fatal(err)
	}
	fusedMask := Mask{
		QPos:  []int{0, 1, 2, 3, 0, 1, 2},
		QSeq:  []int{0, 0, 0, 0, 1, 1, 1},
		KVPos: []int{0, 1, 2, 3, 0, 1, 2},
		KVSeq: []int{0, 0, 0, 0, 1, 1, 1},
	}
	fused, err := GQA(tensor.Concat(q1, q2), tensor.Concat(k1, k2), tensor.Concat(v1, v2), fusedMask)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(fused.O.SliceTokens(0, t1), o1.O); d != 0 {
		t.Fatalf("sequence 0 contaminated, diff %v", d)
	}
	if d := tensor.MaxAbsDiff(fused.O.SliceTokens(t1, t1+t2), o2.O); d != 0 {
		t.Fatalf("sequence 1 contaminated, diff %v", d)
	}
}

func TestEmptyAttendSetYieldsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q, k, v := randQKV(rng, 1, 2, 2, 1, 4)
	// Query at position 0 of sequence 5; KV belongs to sequence 0.
	out, err := GQA(q, k, v, Mask{
		QPos: []int{0}, QSeq: []int{5},
		KVPos: []int{0, 1}, KVSeq: []int{0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out.LSE[0], -1) {
		t.Fatalf("LSE = %v, want -Inf for empty attend set", out.LSE[0])
	}
	for _, x := range out.O.Data {
		if x != 0 {
			t.Fatal("output of empty attend set must be zero")
		}
	}
}

func TestGQAErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q, k, v := randQKV(rng, 2, 2, 3, 1, 4) // NH=3 not divisible... 3/1 ok; craft errors below
	if _, err := GQA(q, k, v, FullCausal(3)); err == nil {
		t.Fatal("mask length mismatch not rejected")
	}
	badV := tensor.RandN(rng, 3, 1, 4)
	if _, err := GQA(q, k, badV, FullCausal(2)); err == nil {
		t.Fatal("k/v token mismatch not rejected")
	}
	badK := tensor.RandN(rng, 2, 2, 4)
	if _, err := GQA(q, badK, tensor.RandN(rng, 2, 2, 4), FullCausal(2)); err == nil {
		t.Fatal("NH not divisible by NKV not rejected")
	}
	badDim := tensor.RandN(rng, 2, 1, 8)
	if _, err := GQA(q, badDim, badDim, FullCausal(2)); err == nil {
		t.Fatal("head-dim mismatch not rejected")
	}
}

func TestMergeTwoHalvesEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	T, ctx := 5, 12
	q, k, v := randQKV(rng, T, ctx, 4, 2, 8)
	m := PartialCausal(T, ctx-T)
	whole, err := GQA(q, k, v, m)
	if err != nil {
		t.Fatal(err)
	}
	split := 7
	left, err := GQA(q, k.SliceTokens(0, split), v.SliceTokens(0, split),
		Mask{QPos: m.QPos, QSeq: m.QSeq, KVPos: m.KVPos[:split], KVSeq: m.KVSeq[:split]})
	if err != nil {
		t.Fatal(err)
	}
	right, err := GQA(q, k.SliceTokens(split, ctx), v.SliceTokens(split, ctx),
		Mask{QPos: m.QPos, QSeq: m.QSeq, KVPos: m.KVPos[split:], KVSeq: m.KVSeq[split:]})
	if err != nil {
		t.Fatal(err)
	}
	merged := Merge(left, right)
	if d := tensor.MaxAbsDiff(whole.O, merged.O); d > tol {
		t.Fatalf("merge deviates from monolithic attention by %v", d)
	}
	for i := range whole.LSE {
		if math.Abs(whole.LSE[i]-merged.LSE[i]) > tol {
			t.Fatalf("merged LSE[%d] = %v, want %v", i, merged.LSE[i], whole.LSE[i])
		}
	}
}

func TestMergeWithIdentityIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q, k, v := randQKV(rng, 3, 3, 2, 1, 4)
	out, err := GQA(q, k, v, FullCausal(3))
	if err != nil {
		t.Fatal(err)
	}
	ident := NewOutput(3, 2, 4)
	merged := Merge(out, ident)
	if d := tensor.MaxAbsDiff(out.O, merged.O); d > tol {
		t.Fatalf("merging with identity changed output by %v", d)
	}
}

func TestAccumulateIntoMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	T, ctx := 4, 9
	q, k, v := randQKV(rng, T, ctx, 2, 2, 4)
	m := PartialCausal(T, ctx-T)
	parts := make([]*Output, 0, 3)
	bounds := []int{0, 3, 6, 9}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		p, err := GQA(q, k.SliceTokens(lo, hi), v.SliceTokens(lo, hi),
			Mask{QPos: m.QPos, QSeq: m.QSeq, KVPos: m.KVPos[lo:hi], KVSeq: m.KVSeq[lo:hi]})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	batch := Merge(parts...)
	stream := NewOutput(T, 2, 4)
	for _, p := range parts {
		AccumulateInto(stream, p)
	}
	// Merge is defined as this fold, so the two agree bit for bit.
	for i := range batch.O.Data {
		if math.Float32bits(batch.O.Data[i]) != math.Float32bits(stream.O.Data[i]) {
			t.Fatalf("stream O[%d] = %x, Merge %x", i, stream.O.Data[i], batch.O.Data[i])
		}
	}
	for i := range batch.LSE {
		if math.Float64bits(batch.LSE[i]) != math.Float64bits(stream.LSE[i]) {
			t.Fatalf("stream LSE[%d] = %x, Merge %x", i, stream.LSE[i], batch.LSE[i])
		}
	}
}

// Property (the paper's losslessness core): for random shapes and random KV
// partitions into up to 5 chunks, merging per-chunk partial attentions in
// any order reproduces monolithic attention.
func TestPropertyMergePartitionInvariance(t *testing.T) {
	f := func(seed int64, rawT, rawCtx, rawCuts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		T := int(rawT%6) + 1
		ctx := T + int(rawCtx%12)
		q, k, v := randQKV(rng, T, ctx, 4, 2, 4)
		m := PartialCausal(T, ctx-T)
		whole, err := GQA(q, k, v, m)
		if err != nil {
			return false
		}
		// Random partition bounds.
		nCuts := int(rawCuts % 4)
		bounds := []int{0, ctx}
		for i := 0; i < nCuts; i++ {
			bounds = append(bounds, rng.Intn(ctx+1))
		}
		sortInts(bounds)
		parts := []*Output{}
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			if lo == hi {
				continue
			}
			p, err := GQA(q, k.SliceTokens(lo, hi), v.SliceTokens(lo, hi),
				Mask{QPos: m.QPos, QSeq: m.QSeq, KVPos: m.KVPos[lo:hi], KVSeq: m.KVSeq[lo:hi]})
			if err != nil {
				return false
			}
			parts = append(parts, p)
		}
		// Shuffle merge order: Merge must be permutation invariant.
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		merged := Merge(parts...)
		return tensor.MaxAbsDiff(whole.O, merged.O) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is associative — Merge(a, Merge(b, c)) == Merge(Merge(a,
// b), c) == Merge(a, b, c) within float tolerance.
func TestPropertyMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T, ctx := 3, 9
		q, k, v := randQKV(rng, T, ctx, 2, 1, 4)
		m := PartialCausal(T, ctx-T)
		mk := func(lo, hi int) *Output {
			p, err := GQA(q, k.SliceTokens(lo, hi), v.SliceTokens(lo, hi),
				Mask{QPos: m.QPos, QSeq: m.QSeq, KVPos: m.KVPos[lo:hi], KVSeq: m.KVSeq[lo:hi]})
			if err != nil {
				panic(err)
			}
			return p
		}
		a, b, c := mk(0, 3), mk(3, 6), mk(6, 9)
		left := Merge(Merge(a, b), c)
		right := Merge(a, Merge(b, c))
		flat := Merge(a, b, c)
		return tensor.MaxAbsDiff(left.O, right.O) <= 1e-4 &&
			tensor.MaxAbsDiff(left.O, flat.O) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
