package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// randomMask builds an adversarial mask: several sequences interleaved in
// random-length runs, padding rows sprinkled in, and (optionally) positions
// shuffled within runs so the builder's sorted-run fast path cannot apply.
func randomMask(rng *rand.Rand, qTokens, kvTokens int, sorted bool) Mask {
	m := Mask{
		QPos:  make([]int, qTokens),
		QSeq:  make([]int, qTokens),
		KVPos: make([]int, kvTokens),
		KVSeq: make([]int, kvTokens),
	}
	numSeqs := rng.Intn(4) + 1
	for i := 0; i < qTokens; i++ {
		m.QSeq[i] = rng.Intn(numSeqs)
		m.QPos[i] = rng.Intn(24)
	}
	nextPos := make([]int, numSeqs)
	j := 0
	for j < kvTokens {
		runLen := rng.Intn(6) + 1
		if j+runLen > kvTokens {
			runLen = kvTokens - j
		}
		if rng.Intn(5) == 0 { // padding run
			for i := 0; i < runLen; i++ {
				m.KVPos[j] = -1
				m.KVSeq[j] = rng.Intn(numSeqs)
				j++
			}
			continue
		}
		s := rng.Intn(numSeqs)
		start := j
		for i := 0; i < runLen; i++ {
			m.KVPos[j] = nextPos[s]
			m.KVSeq[j] = s
			nextPos[s]++
			j++
		}
		if !sorted {
			rng.Shuffle(j-start, func(a, b int) {
				m.KVPos[start+a], m.KVPos[start+b] = m.KVPos[start+b], m.KVPos[start+a]
			})
		}
	}
	return m
}

// The interval builder must admit exactly the same (query, key) pairs as the
// naive per-score mask predicate, on sorted and shuffled position layouts.
func TestPropertyIntervalsMatchNaiveMask(t *testing.T) {
	f := func(seed int64, rawQ, rawKV uint8, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		qTokens := int(rawQ%12) + 1
		kvTokens := int(rawKV%40) + 1
		m := randomMask(rng, qTokens, kvTokens, sorted)
		iv := new(Intervals)
		iv.compile(m)
		for qt := 0; qt < qTokens; qt++ {
			allowed := make([]bool, kvTokens)
			for _, r := range iv.Row(qt) {
				if r.Lo < 0 || r.Hi > kvTokens || r.Lo >= r.Hi {
					t.Logf("malformed interval [%d,%d)", r.Lo, r.Hi)
					return false
				}
				for j := r.Lo; j < r.Hi; j++ {
					if allowed[j] {
						t.Logf("kv %d covered twice for query %d", j, qt)
						return false
					}
					allowed[j] = true
				}
			}
			for j := 0; j < kvTokens; j++ {
				want := m.KVPos[j] >= 0 && m.KVSeq[j] == m.QSeq[qt] && m.KVPos[j] <= m.QPos[qt]
				if allowed[j] != want {
					t.Logf("query %d kv %d: intervals say %v, mask says %v", qt, j, allowed[j], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Interval ordering: the kernels rely on rows being visited in ascending KV
// index order, so intervals must come back sorted and non-overlapping.
func TestIntervalsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m := randomMask(rng, 8, 40, trial%2 == 0)
		iv := new(Intervals)
		iv.compile(m)
		for qt := 0; qt < 8; qt++ {
			prev := -1
			for _, r := range iv.Row(qt) {
				if r.Lo < prev {
					t.Fatalf("intervals out of order at query %d: %v", qt, iv.Row(qt))
				}
				prev = r.Hi
			}
		}
	}
}

// The production kernel must agree with the seed Reference witness on
// arbitrary masks (to float tolerance: Reference dots in float32, GQA in
// float64, so bits legitimately differ).
func TestGQAMatchesReferenceOnRandomMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		qTokens := rng.Intn(10) + 1
		kvTokens := rng.Intn(48) + 1
		m := randomMask(rng, qTokens, kvTokens, trial%2 == 0)
		nh, nkv, dh := 4, 2, 8
		q := tensor.RandN(rng, qTokens, nh, dh)
		k := tensor.RandN(rng, kvTokens, nkv, dh)
		v := tensor.RandN(rng, kvTokens, nkv, dh)
		got, err := GQA(q, k, v, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(q, k, v, m)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(got.O, want.O); d > 1e-5 {
			t.Fatalf("trial %d: kernel diverges from reference by %v", trial, d)
		}
		for i := range got.LSE {
			gi, wi := got.LSE[i], want.LSE[i]
			if math.IsInf(gi, -1) != math.IsInf(wi, -1) {
				t.Fatalf("trial %d: LSE[%d] identity mismatch: %v vs %v", trial, i, gi, wi)
			}
			if !math.IsInf(gi, -1) && math.Abs(gi-wi) > 1e-5 {
				t.Fatalf("trial %d: LSE[%d] = %v, reference %v", trial, i, gi, wi)
			}
		}
	}
}

// Parallel execution must be bit-identical to serial at every worker count:
// the kernels partition output cells, and each cell's reduction order is
// fixed. The small shape runs below the pool's size rule (parallel.MinWork)
// and stays inline; the large one — a causal 128-query chunk over 512 keys,
// whose merge folds 32,768 elements — passes it, and its GQA tiles and its
// merge must each fan out at widths 2 and 8.
func TestKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct {
		name                           string
		m                              Mask
		qTokens, kvTokens, nh, nkv, dh int
		fans                           bool
	}{
		{"small", randomMask(rng, 13, 57, false), 13, 57, 4, 2, 8, false},
		{"past-MinWork", PartialCausal(128, 512-128), 128, 512, 8, 2, 32, true},
	} {
		q := tensor.RandN(rng, sh.qTokens, sh.nh, sh.dh)
		k := tensor.RandN(rng, sh.kvTokens, sh.nkv, sh.dh)
		v := tensor.RandN(rng, sh.kvTokens, sh.nkv, sh.dh)

		run := func(workers int) (*Output, *Output) {
			old := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(old)
			before := parallel.Snapshot().Jobs
			g, err := GQA(q, k, v, sh.m)
			if err != nil {
				t.Fatal(err)
			}
			mid := parallel.Snapshot().Jobs
			merged := Merge(g, g)
			gqaJobs, mergeJobs := mid-before, parallel.Snapshot().Jobs-mid
			fans := sh.fans && workers > 1
			if (gqaJobs > 0) != fans || (mergeJobs > 0) != fans {
				t.Fatalf("%s at %d workers: gqa %d and merge %d pool jobs, want fanned: %v",
					sh.name, workers, gqaJobs, mergeJobs, fans)
			}
			return g, merged
		}
		g1, m1 := run(1)
		for _, w := range []int{2, 8} {
			gw, mw := run(w)
			for name, pair := range map[string][2]*Output{
				"gqa": {g1, gw}, "merge": {m1, mw},
			} {
				for i := range pair[0].O.Data {
					if math.Float32bits(pair[0].O.Data[i]) != math.Float32bits(pair[1].O.Data[i]) {
						t.Fatalf("%s %s O[%d] at %d workers = %x, serial %x",
							sh.name, name, i, w, pair[1].O.Data[i], pair[0].O.Data[i])
					}
				}
				for i := range pair[0].LSE {
					if math.Float64bits(pair[0].LSE[i]) != math.Float64bits(pair[1].LSE[i]) {
						t.Fatalf("%s %s LSE[%d] differs at %d workers", sh.name, name, i, w)
					}
				}
			}
		}
	}
}

// expNeg must track math.Exp to ~1e-13 relative over the softmax argument
// range and hit exp(0) == 1 exactly.
func TestExpNegAccuracy(t *testing.T) {
	if expNeg(0) != 1 {
		t.Fatalf("expNeg(0) = %v, want exactly 1", expNeg(0))
	}
	if expNeg(math.Inf(-1)) != 0 {
		t.Fatalf("expNeg(-Inf) = %v, want 0", expNeg(math.Inf(-1)))
	}
	if !math.IsNaN(expNeg(math.NaN())) {
		t.Fatalf("expNeg(NaN) = %v, want NaN", expNeg(math.NaN()))
	}
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 0, 4003)
	for i := 0; i < 2000; i++ {
		xs = append(xs, -rng.Float64()*30)  // typical softmax shifts
		xs = append(xs, -rng.Float64()*745) // full underflow range
	}
	xs = append(xs, 0, -690, -708.3, -745)
	batch := append([]float64(nil), xs...)
	expNegVec(batch)
	for i, x := range xs {
		want := math.Exp(x)
		got := expNeg(x)
		if got != batch[i] {
			t.Fatalf("expNegVec[%d] = %v, expNeg = %v (batching changed bits)", i, batch[i], got)
		}
		if want == 0 {
			if got != 0 {
				t.Fatalf("expNeg(%v) = %v, want 0", x, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-13 {
			t.Fatalf("expNeg(%v) = %v, math.Exp = %v, rel err %v", x, got, want, rel)
		}
	}
}

// gqaOneByOne drives the block kernel one query at a time — every block is
// the block of one — which is the arithmetic each cell must keep however
// many neighbours share its tile walk.
func gqaOneByOne(q, k, v *tensor.Tensor, m Mask) *Output {
	out := NewOutput(q.Tokens, q.Heads, q.Dim)
	iv := new(Intervals)
	iv.compile(m)
	group := q.Heads / k.Heads
	sc := &gqaScratch{}
	for kvh := 0; kvh < k.Heads; kvh++ {
		for t := 0; t < q.Tokens; t++ {
			stripe := tileChunks(iv.Row(t)) * group * kvTileRows
			if stripe == 0 {
				continue
			}
			sc.size(1, stripe, group, q.Dim)
			gqaBlock(out, q, tensorKV(k, v), sc, iv, t, 1, kvh, stripe)
		}
	}
	return out
}

// Query blocking must not change a bit: the production sweep (blocks of up
// to maxBlockQueries, cut by the worker chunks) equals the one-query-at-a-time
// drive exactly, on multi-sequence batches with padding rows, unsorted KV
// positions, queries that see nothing, query counts that are no multiple of
// the block, several KV-head counts and head groups, head dims on both the
// vector and the portable loops, and a context long enough that the score
// budget halves the block — at every tier against the portable drive.
func TestGQABlocksMatchOneQueryAtATimeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		dh := []int{4, 20, 32, 64, 128}[trial%5]
		nkv := []int{1, 2, 4}[trial%3]
		group := []int{1, 2, 8, 16}[rng.Intn(4)]
		T := rng.Intn(37) + 1
		kv := rng.Intn(5*kvTileRows) + 1
		var m Mask
		switch {
		case trial%10 == 9: // long causal context: stripes over the score budget
			dh, nkv, group, T = 4, 1, 8, 11
			kv = scoreBudget/(group*4) + 3*kvTileRows + 5
			m = PartialCausal(T, kv-T)
		default:
			m = randomMask(rng, T, kv, trial%2 == 0)
			for i := range m.QPos {
				m.QPos[i] += rng.Intn(40) - 4 // some rows end up empty
			}
		}
		q := tensor.RandN(rng, T, nkv*group, dh)
		k := tensor.RandN(rng, kv, nkv, dh)
		v := tensor.RandN(rng, kv, nkv, dh)
		prev := simd.SetTier(simd.Portable)
		want := gqaOneByOne(q, k, v, m)
		for _, tier := range simd.Tiers() {
			simd.SetTier(tier)
			for _, w := range []int{1, 2, 8} {
				old := parallel.SetWorkers(w)
				got, err := GQA(q, k, v, m)
				parallel.SetWorkers(old)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.O.Data {
					if math.Float32bits(got.O.Data[i]) != math.Float32bits(want.O.Data[i]) {
						t.Fatalf("trial %d (T=%d kv=%d nkv=%d group=%d dh=%d) tier=%v workers=%d: O[%d] = %x, one-by-one %x",
							trial, T, kv, nkv, group, dh, tier, w, i, got.O.Data[i], want.O.Data[i])
					}
				}
				for i := range want.LSE {
					if math.Float64bits(got.LSE[i]) != math.Float64bits(want.LSE[i]) {
						t.Fatalf("trial %d (T=%d kv=%d nkv=%d group=%d dh=%d) tier=%v workers=%d: LSE[%d] = %x, one-by-one %x",
							trial, T, kv, nkv, group, dh, tier, w, i, got.LSE[i], want.LSE[i])
					}
				}
			}
		}
		simd.SetTier(prev)
	}
}

// On the causal diagonal a block's queries admit only the first rows of the
// last tile; gqaBlock must widen no further than the largest interval end.
// The rows past it are poisoned with NaN in K and V and must leave O and LSE
// unchanged, and the part of the scratch tile behind the bound must still
// hold its sentinel afterwards — those rows were never even converted.
func TestGQABlockWidensOnlyAdmittedRows(t *testing.T) {
	const dh, group, nq, ctx, sentinel = 8, 2, 5, 11, -12345.5
	rng := rand.New(rand.NewSource(22))
	m := PartialCausal(nq, ctx-nq) // the last query sees rows [0, ctx)
	m.KVPos = append(m.KVPos, make([]int, kvTileRows-ctx)...)
	m.KVSeq = append(m.KVSeq, make([]int, kvTileRows-ctx)...)
	for j := ctx; j < kvTileRows; j++ {
		m.KVPos[j] = j // real rows of the same sequence, beyond every query
	}
	q := tensor.RandN(rng, nq, group, dh)
	k := tensor.RandN(rng, kvTileRows, 1, dh)
	v := tensor.RandN(rng, kvTileRows, 1, dh)
	run := func() (*Output, []float64) {
		out := NewOutput(nq, group, dh)
		iv := new(Intervals)
		iv.compile(m)
		stripe := tileChunks(iv.Row(nq-1)) * group * kvTileRows
		sc := &gqaScratch{}
		sc.size(nq, stripe, group, dh)
		for i := range sc.tile {
			sc.tile[i] = sentinel
		}
		gqaBlock(out, q, tensorKV(k, v), sc, iv, 0, nq, 0, stripe)
		return out, sc.tile
	}
	want, _ := run()
	for i := ctx * dh; i < kvTileRows*dh; i++ {
		k.Data[i] = float32(math.NaN())
		v.Data[i] = float32(math.NaN())
	}
	got, tile := run()
	for i := range want.O.Data {
		if math.Float32bits(got.O.Data[i]) != math.Float32bits(want.O.Data[i]) {
			t.Fatalf("O[%d] = %x with poisoned rows, %x without", i, got.O.Data[i], want.O.Data[i])
		}
	}
	for i := range want.LSE {
		if math.Float64bits(got.LSE[i]) != math.Float64bits(want.LSE[i]) {
			t.Fatalf("LSE[%d] = %x with poisoned rows, %x without", i, got.LSE[i], want.LSE[i])
		}
	}
	for i := ctx * dh; i < kvTileRows*dh; i++ {
		if tile[i] != sentinel {
			t.Fatalf("tile row %d was widened; the block admits rows below %d only", i/dh, ctx)
		}
	}
	if tile[(ctx-1)*dh] == sentinel {
		t.Fatalf("tile row %d was not widened", ctx-1)
	}
}
