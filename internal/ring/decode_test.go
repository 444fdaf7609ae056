package ring

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testsupport"
)

// With BlockLen zero the block length is derived, ceil(NumSeqs/N), and a rank
// that owns more tokens than that must be refused before it appends any of
// them: a call rejected after the append loop would leave the cache holding
// rows a retry appends again.
func TestDecodeRejectsOversizedDefaultBlockBeforeAppend(t *testing.T) {
	w := comm.NewWorld(2)
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for seq := 0; seq < 3; seq++ {
		if err := cache.Append(seq, tensor.RandN(rng, 2, nkv, dh), tensor.RandN(rng, 2, nkv, dh), []int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Three sequences over two ranks: the default block is 2, this rank owns 3.
	in := &DecodeInput{
		Rank: w.Rank(0), NumSeqs: 3,
		Owned: []DecodeToken{{Seq: 0, Pos: 2}, {Seq: 1, Pos: 2}, {Seq: 2, Pos: 2}},
		Q:     tensor.RandN(rng, 3, nh, dh), K: tensor.RandN(rng, 3, nkv, dh), V: tensor.RandN(rng, 3, nkv, dh),
		Cache: cache, Elem: elem,
	}
	if _, err := PassQDecode(in); err == nil {
		t.Fatal("3 owned tokens accepted into the default block of 2")
	}
	for seq := 0; seq < 3; seq++ {
		if got := cache.SeqLen(seq); got != 2 {
			t.Fatalf("rejected call left sequence %d with %d cached rows, want 2", seq, got)
		}
	}
}

// decodeRun drives `steps` batched decode steps of numSeqs sequences over
// world, two sweeps per step the way a two-layer engine runs them — each
// layer with its own cache and mirror, both on the rank's one arena, the
// second straight after the first — and returns every rank's output of every
// sweep (cloned: an arena output is only good until the next sweep). Owners
// are drawn at random, so ranks collide and the block length moves from step
// to step as it does when sessions join and leave a batch.
func decodeRun(t *testing.T, world *comm.World, numSeqs, steps int, scratch bool) []*attention.Output {
	t.Helper()
	const layers = 2
	n := world.N
	rng := rand.New(rand.NewSource(91))
	caches := make([][layers]*kvcache.Cache, n)
	blocks := make([][layers]*BlockCache, n)
	scratches, attns := make([]*DecodeScratch, n), make([]*attention.Scratch, n)
	for r := range caches {
		for l := 0; l < layers; l++ {
			c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			caches[r][l], blocks[r][l] = c, NewBlockCache()
		}
		if scratch {
			scratches[r], attns[r] = new(DecodeScratch), new(attention.Scratch)
		}
	}
	var all []*attention.Output
	for step := 0; step < steps; step++ {
		owned := make([][]DecodeToken, n)
		rows := make([][]int, n)
		for s := 0; s < numSeqs; s++ {
			r := rng.Intn(n)
			owned[r] = append(owned[r], DecodeToken{Seq: s, Pos: step})
			rows[r] = append(rows[r], s)
		}
		bl := 1
		for r := range owned {
			bl = max(bl, len(owned[r]))
		}
		var q, k, v [layers]*tensor.Tensor
		for l := range q {
			q[l] = tensor.RandN(rng, numSeqs, nh, dh)
			k[l], v[l] = tensor.RandN(rng, numSeqs, nkv, dh), tensor.RandN(rng, numSeqs, nkv, dh)
		}
		outs, err := comm.RunCollect(world, func(r *comm.Rank) (*attention.Output, error) {
			sweeps := new(attention.Output)
			for l := 0; l < layers; l++ {
				out, err := PassQDecode(&DecodeInput{
					Rank: r, NumSeqs: numSeqs, Owned: owned[r.ID], BlockLen: bl,
					Q: q[l].Gather(rows[r.ID]), K: k[l].Gather(rows[r.ID]), V: v[l].Gather(rows[r.ID]),
					Cache: caches[r.ID][l], Blocks: blocks[r.ID][l], Scratch: scratches[r.ID], Attn: attns[r.ID], Elem: elem,
				})
				if err != nil {
					return nil, err
				}
				sweeps = appendOutput(sweeps, out)
			}
			return sweeps, nil
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		all = append(all, outs...)
	}
	return all
}

// The arena changes where a sweep's buffers live, never what lands in them:
// every rank's output of every sweep with a DecodeScratch equals the
// allocate-per-call sweep's bit for bit, at N = 2, 3 and 4, over steps whose
// block length moves, two sweeps per step on one arena. Under -race this is
// also the by-pointer hazard's test: a peer that still read a query block or
// a partial the owner had moved on to rewrite would be a reported race.
func TestDecodeScratchMatchesPerCallAllocationExactly(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		fresh := decodeRun(t, newTestWorld(n), 5, 6, false)
		arena := decodeRun(t, newTestWorld(n), 5, 6, true)
		requireSameOutputs(t, fresh, arena)
	}
}

func newTestWorld(n int) *comm.World {
	return comm.NewWorld(n, comm.WithRecvTimeout(5*time.Second))
}

// A decode query normally sits at or past every cached row of its sequence,
// and the sweep hands the kernel one admitted interval. A mirror holding a
// later position than the query must still be masked row by row: the sweep
// then equals reference attention under the full causal mask.
func TestDecodeMasksRowsPastTheQuery(t *testing.T) {
	world := newTestWorld(1)
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const ctx = 9
	k, v := tensor.RandN(rng, ctx, nkv, dh), tensor.RandN(rng, ctx, nkv, dh)
	pos := make([]int, ctx)
	for i := range pos {
		pos[i] = i
	}
	if err := cache.Append(0, k, v, pos); err != nil {
		t.Fatal(err)
	}
	// The new token claims position 4: rows 5..8 lie past it.
	q := tensor.RandN(rng, 1, nh, dh)
	nk, nv := tensor.RandN(rng, 1, nkv, dh), tensor.RandN(rng, 1, nkv, dh)
	out, err := PassQDecode(&DecodeInput{
		Rank: world.Rank(0), NumSeqs: 1, Owned: []DecodeToken{{Seq: 0, Pos: 4}},
		Q: q, K: nk, V: nv, Cache: cache, Scratch: new(DecodeScratch), Elem: elem,
	})
	if err != nil {
		t.Fatal(err)
	}
	fullK, fullV := tensor.Concat(k, nk), tensor.Concat(v, nv)
	ref, err := attention.GQA(q, fullK, fullV, attention.Mask{
		QPos: []int{4}, QSeq: []int{0}, KVPos: append(pos, 4), KVSeq: make([]int, ctx+1),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutputs(t, []*attention.Output{ref}, []*attention.Output{out})
}

// The masked fallback runs out of the decode arena: a visiting block whose
// row 1 sits before some of its sequence's cached rows (a hand-built cache;
// row 0's sequence takes the unmasked path, row 2 is padding) yields for that
// row exactly what GQAKVInto computes over the sequence's pages under the
// causal mask, and once warm the sweep allocates nothing.
func TestDecodeMaskedFallbackIsExactAndAllocationFree(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	const ctx = 11
	pos := make([]int, ctx)
	for i := range pos {
		pos[i] = i
	}
	for seq := 0; seq < 2; seq++ {
		if err := cache.Append(seq, tensor.RandN(rng, ctx, nkv, dh), tensor.RandN(rng, ctx, nkv, dh), pos); err != nil {
			t.Fatal(err)
		}
	}
	blk := &wire.QBlock{Q: tensor.RandN(rng, 3, nh, dh), Pos: []int{ctx, 6, -1}, Seq: []int{0, 1, -1}}
	s := new(DecodeScratch)
	s.fit(1, 3, nh, dh)
	out, attn := s.tail.partial(0), new(attention.Scratch)
	if err := decodeBlockAttention(cache, s, attn, blk, out); err != nil {
		t.Fatal(err)
	}
	want := attention.NewOutput(1, nh, dh)
	q := &tensor.Tensor{Tokens: 1, Heads: nh, Dim: dh, Data: blk.Q.Row2D(1)}
	kv := attention.KV{Heads: nkv, Dim: dh, Runs: cache.Runs(nil, 1)}
	kseq := make([]int, ctx)
	for i := range kseq {
		kseq[i] = 1
	}
	if err := attention.GQAKVInto(want, q, kv, attention.Mask{
		QPos: []int{6}, QSeq: []int{1}, KVPos: pos, KVSeq: kseq,
	}, new(attention.Scratch)); err != nil {
		t.Fatal(err)
	}
	row := attention.Output{
		O:   &tensor.Tensor{Tokens: 1, Heads: nh, Dim: dh, Data: out.O.Row2D(1)},
		LSE: out.LSE[nh : 2*nh],
	}
	requireSameOutputs(t, []*attention.Output{want}, []*attention.Output{&row})
	defer parallel.SetWorkers(parallel.SetWorkers(1)) // kernels inline, as TestArenasSurviveShapeChurn says why
	allocs := testing.AllocsPerRun(10, func() {
		if err := decodeBlockAttention(cache, s, attn, blk, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm sweep through the masked fallback allocated %v objects, want 0", allocs)
	}
}

// The overlapped exchange keeps SendRecv's error surface: a failed send comes
// back from wait (not from the issue), names the link, and nothing is
// received after it; drain after a good send consumes the peer's block so the
// next exchange cannot read a stale one.
func TestMailboxExchangeErrorSurface(t *testing.T) {
	world := newTestWorld(2)
	world.FailLink(0, 1)
	r0, r1 := world.Rank(0), world.Rank(1)
	xfer := startSendRecv(r0, 1, 1, "blk", 8)
	if _, err := xfer.wait(); err == nil || err.Error() != "comm: link 0->1 failed" {
		t.Fatalf("wait after a failed send = %v", err)
	}
	xfer.drain() // a failed send left nothing to consume: must not block
	world.Transport().HealLink(0, 1)

	if err := r1.Send(0, "stale", 8); err != nil {
		t.Fatal(err)
	}
	startSendRecv(r0, 1, 1, "a", 8).drain()
	if r0.Waiting(1) {
		t.Fatal("drain left the peer's block in the box")
	}
	var zero inflight
	zero.drain() // nothing issued: a no-op
}
