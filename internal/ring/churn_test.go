package ring

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/kvcache"
	"repro/internal/parallel"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/testsupport"
)

// The shape-churn script: pass-Q chunks of these lengths against sequence
// 0's cached prefix, one pass-KV chunk against sequence 1's, then fused
// decode steps of these batch sizes over sequences decodeSeq0, decodeSeq0+1,
// and so on. Every arena buffer changes shape at least once per replay, and
// a replay ends in another shape than it began in.
var (
	churnPassQ   = []int{256, 1, 37, 256}
	churnBatches = []int{1, 2, 3, 4, 5, 4, 3, 2}
)

const (
	churnPassKV   = 64 // tokens of the pass-KV chunk
	churnPrefix   = 40 // cached rows of sequences 0 and 1
	churnContext  = 6  // cached rows of every decode sequence
	churnPageSize = 64 // large enough that no replay the test runs opens a page
	decodeSeq0    = 2
)

// churnRig replays the shape-churn script over one world, one KV cache per
// rank and, when arena is set, one PrefillScratch and one DecodeScratch per
// rank. Every input and plan is built up front, and the rank goroutines live
// as long as the rig, so a replay allocates only what the ring calls do.
// Prefill KV is not persisted, so a replay grows the caches by its decode
// rows alone, inside the pages the seeded context opened.
type churnRig struct {
	t       *testing.T
	world   *comm.World
	caches  []*kvcache.Cache
	prefill [][]PrefillInput    // [rank][call]
	run     []prefillFn         // [call]
	decode  [][]DecodeInput     // [rank][step]
	full    [][3]*tensor.Tensor // [step]: Q, K and V, row i for decode sequence i
	nextPos []int               // next decode position, by decode sequence
	start   []chan struct{}
	done    chan error
	record  bool
	outs    [][]*attention.Output // [rank]: every call's output, cloned, in call order
}

func newChurnRig(t *testing.T, n int, arena bool) *churnRig {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(45 + n)))
	g := &churnRig{
		t: t, world: newTestWorld(n), caches: make([]*kvcache.Cache, n),
		prefill: make([][]PrefillInput, n), decode: make([][]DecodeInput, n),
		nextPos: make([]int, slices.Max(churnBatches)), start: make([]chan struct{}, n),
		done: make(chan error, n), outs: make([][]*attention.Output, n),
	}
	prefills, decodes, attns := make([]*PrefillScratch, n), make([]*DecodeScratch, n), make([]*attention.Scratch, n)
	for r := range g.caches {
		c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: churnPageSize})
		if err != nil {
			t.Fatal(err)
		}
		g.caches[r] = c
		if arena {
			prefills[r], decodes[r], attns[r] = new(PrefillScratch), new(DecodeScratch), new(attention.Scratch)
		}
	}
	// Cached context: position p of every sequence lives on rank p mod n.
	seed := func(seq, rows int) {
		for p := 0; p < rows; p++ {
			if err := g.caches[p%n].Append(seq, tensor.RandN(rng, 1, nkv, dh), tensor.RandN(rng, 1, nkv, dh), []int{p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	seed(0, churnPrefix)
	seed(1, churnPrefix)
	for i := range g.nextPos {
		seed(decodeSeq0+i, churnContext)
		g.nextPos[i] = churnContext
	}
	chunk := func(seq, tokens int, run prefillFn) {
		plan, err := sharding.NewBatchShard([]int{tokens}, n)
		if err != nil {
			t.Fatal(err)
		}
		q, k, v := tensor.RandN(rng, tokens, nh, dh), tensor.RandN(rng, tokens, nkv, dh), tensor.RandN(rng, tokens, nkv, dh)
		for r := range g.prefill {
			g.prefill[r] = append(g.prefill[r], PrefillInput{
				Rank: g.world.Rank(r), Plan: plan, P: []int{churnPrefix}, SeqIDs: []int{seq},
				Q: plan.Shard(q, r), K: plan.Shard(k, r), V: plan.Shard(v, r),
				Cache: g.caches[r], Blocks: NewBlockCache(), Scratch: prefills[r], Attn: attns[r], Elem: elem,
			})
		}
		g.run = append(g.run, run)
	}
	for _, tokens := range churnPassQ {
		chunk(0, tokens, PassQPrefill)
	}
	chunk(1, churnPassKV, PassKVPrefill)
	for _, b := range churnBatches {
		g.full = append(g.full, [3]*tensor.Tensor{tensor.RandN(rng, b, nh, dh), tensor.RandN(rng, b, nkv, dh), tensor.RandN(rng, b, nkv, dh)})
		for r := range g.decode {
			// Room for every row of the step: replays rotate the owners.
			g.decode[r] = append(g.decode[r], DecodeInput{
				Rank: g.world.Rank(r), NumSeqs: b, Owned: make([]DecodeToken, 0, b),
				Q: tensor.New(b, nh, dh), K: tensor.New(b, nkv, dh), V: tensor.New(b, nkv, dh),
				Cache: g.caches[r], Scratch: decodes[r], Attn: attns[r], Elem: elem,
			})
		}
	}
	for r := range g.start {
		g.start[r] = make(chan struct{}, 1)
		go func(r int) {
			for range g.start[r] {
				g.done <- g.rank(r)
			}
		}(r)
	}
	t.Cleanup(func() {
		for _, c := range g.start {
			close(c)
		}
	})
	return g
}

// rank runs rank r's share of one replay.
func (g *churnRig) rank(r int) error {
	for i := range g.prefill[r] {
		out, err := g.run[i](&g.prefill[r][i])
		if err != nil {
			return err
		}
		g.keep(r, out)
	}
	for i := range g.decode[r] {
		out, err := PassQDecode(&g.decode[r][i])
		if err != nil {
			return err
		}
		g.keep(r, out)
	}
	return nil
}

func (g *churnRig) keep(r int, out *attention.Output) {
	if g.record {
		g.outs[r] = append(g.outs[r], appendOutput(new(attention.Output), out))
	}
}

// replay assigns this replay's decode owners and positions — sequence i of a
// step goes to rank (i + step + replay) mod n, so owners rotate and collide —
// and runs the script on every rank.
func (g *churnRig) replay(round int) {
	n := g.world.N
	for step, b := range churnBatches {
		bl := 1
		for r := range g.decode {
			in := &g.decode[r][step]
			in.Owned = in.Owned[:0]
			for i := 0; i < b; i++ {
				if (i+step+round)%n == r {
					in.Owned = append(in.Owned, DecodeToken{Seq: decodeSeq0 + i, Pos: g.nextPos[i]})
				}
			}
			bl = max(bl, len(in.Owned))
		}
		for r := range g.decode {
			in := &g.decode[r][step]
			in.BlockLen = bl
			for j, dst := range []*tensor.Tensor{in.Q, in.K, in.V} {
				src := g.full[step][j]
				dst.Resize(len(in.Owned), src.Heads, src.Dim)
				for i, tok := range in.Owned {
					copy(dst.Row2D(i), src.Row2D(tok.Seq-decodeSeq0))
				}
			}
		}
		for i := 0; i < b; i++ {
			g.nextPos[i]++
		}
	}
	for _, c := range g.start {
		c <- struct{}{}
	}
	var first error
	for range g.start {
		if err := <-g.done; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		g.t.Fatalf("replay %d: %v", round, first)
	}
}

// The arenas survive shape changes: a replay of the shape-churn script on
// reused scratches yields every call's output bit for bit as the same call on
// fresh ones, at N = 2, 3 and 4 on the in-process transport, and once warm a
// replay allocates nothing — no arena buffer is cut anew when only the block
// length moves. Under -race this is also the reshape's lifetime test: a
// partial or query block reshaped while a peer still read it would be a
// reported race.
func TestArenasSurviveShapeChurn(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	for _, n := range []int{2, 3, 4} {
		fresh, arena := newChurnRig(t, n, false), newChurnRig(t, n, true)
		fresh.record, arena.record = true, true
		for round := 0; round < 2; round++ {
			fresh.replay(round)
			arena.replay(round)
			for r := range fresh.outs {
				requireSameOutputs(t, fresh.outs[r], arena.outs[r])
				fresh.outs[r], arena.outs[r] = nil, nil
			}
		}
		if testsupport.Race {
			continue // the race detector allocates on its own account
		}
		// A collection would empty the runtime's per-processor caches of
		// wait records, which the rank goroutines refill by allocating.
		gc := debug.SetGCPercent(-1)
		// Kernels run inline while allocations are counted: a pool fan-out's
		// job returns to the free list only once its waiting invitations are
		// drained, which on AllocsPerRun's one processor can come after the
		// next fan-out has cut a new job. The pool's tests cover its recycling.
		workers := parallel.SetWorkers(1)
		arena.record = false
		round := 2
		allocs := testing.AllocsPerRun(3, func() {
			arena.replay(round)
			round++
		})
		parallel.SetWorkers(workers)
		debug.SetGCPercent(gc)
		if allocs != 0 {
			t.Errorf("N=%d: a warm replay of the shape-churn script allocated %v objects, want 0", n, allocs)
		}
	}
}
