package ring

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/kvcache"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

// chunkedHarness drives a chunked single-sequence prefill twice — once with
// persistent per-rank BlockCaches, once with a buffer allocated per call —
// and hands both outputs plus the persistent caches' stats after every chunk
// to the caller.
type chunkedHarness struct {
	n, chunk, chunks int
	variant          prefillFn
}

func (ch chunkedHarness) run(t *testing.T, withBlocks bool) ([]*attention.Output, []BlockCacheStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	world := comm.NewWorld(ch.n)
	world.RecvTimeout = 5 * time.Second
	caches := make([]*kvcache.Cache, ch.n)
	blocks := make([]*BlockCache, ch.n)
	for r := 0; r < ch.n; r++ {
		c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		caches[r] = c
		if withBlocks {
			blocks[r] = NewBlockCache()
		}
	}
	var outs []*attention.Output
	var perChunk []BlockCacheStats
	p := 0
	for chunkIdx := 0; chunkIdx < ch.chunks; chunkIdx++ {
		plan, err := sharding.NewBatchShard([]int{ch.chunk}, ch.n)
		if err != nil {
			t.Fatal(err)
		}
		fq := tensor.RandN(rng, plan.TotalTokens(), nh, dh)
		fk := tensor.RandN(rng, plan.TotalTokens(), nkv, dh)
		fv := tensor.RandN(rng, plan.TotalTokens(), nkv, dh)
		chunkOuts, err := comm.RunCollect(world, func(r *comm.Rank) (*attention.Output, error) {
			return ch.variant(&PrefillInput{
				Rank: r, Plan: plan, P: []int{p},
				Q: plan.Shard(fq, r.ID), K: plan.Shard(fk, r.ID), V: plan.Shard(fv, r.ID),
				Cache: caches[r.ID], Blocks: blocks[r.ID], Elem: elem,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]*tensor.Tensor, ch.n)
		for r, o := range chunkOuts {
			locals[r] = o.O
		}
		outs = append(outs, &attention.Output{O: plan.Unshard(locals)})
		for r := 0; r < ch.n; r++ {
			if err := AppendLocalKV(caches[r], plan, r, []int{p}, nil, plan.Shard(fk, r), plan.Shard(fv, r)); err != nil {
				t.Fatal(err)
			}
		}
		p += ch.chunk
		if withBlocks {
			var agg BlockCacheStats
			for r := 0; r < ch.n; r++ {
				agg.Add(blocks[r].Stats())
			}
			perChunk = append(perChunk, agg)
		}
	}
	return outs, perChunk
}

// The kvcache is the only per-sequence KV store, so a chunked prefill copies
// exactly the KV rows it ships and no others: pass-KV copies, on
// each chunk, every cached row (from the cache, once per rank) and every new
// row into the block they send — the whole context so far, the rows Table 2
// sends — while pass-Q, whose KV stays put, copies none and attends one
// in-place segment per rank. The outputs equal the per-call buffer's bit for
// bit.
func TestChunkedPrefillCopiesOnlyShippedRows(t *testing.T) {
	for name, variant := range map[string]prefillFn{
		"pass-kv": PassKVPrefill,
		"pass-q":  PassQPrefill,
	} {
		t.Run(name, func(t *testing.T) {
			ch := chunkedHarness{n: 2, chunk: 8, chunks: 4, variant: variant}
			warm, stats := ch.run(t, true)
			cold, _ := ch.run(t, false)
			for i := range warm {
				if d := tensor.MaxAbsDiff(warm[i].O, cold[i].O); d != 0 {
					t.Fatalf("chunk %d: the layer's buffer differs from a per-call one by %v", i, d)
				}
			}
			ships := name != "pass-q"
			var prev BlockCacheStats
			for i, s := range stats {
				want := BlockCacheStats{Reuses: int64(ch.n)}
				if ships {
					want = BlockCacheStats{Appends: int64(ch.n), AppendedRows: int64(ch.chunk)}
					if i > 0 {
						// Both ranks hold half of every earlier chunk.
						want.Rebuilds, want.RebuildRows = int64(ch.n), int64(i*ch.chunk)
					}
				}
				got := BlockCacheStats{
					Rebuilds: s.Rebuilds - prev.Rebuilds, RebuildRows: s.RebuildRows - prev.RebuildRows,
					Appends: s.Appends - prev.Appends, AppendedRows: s.AppendedRows - prev.AppendedRows,
					Reuses: s.Reuses - prev.Reuses,
				}
				if got != want {
					t.Fatalf("chunk %d copied %+v, want %+v", i, got, want)
				}
				prev = s
			}
		})
	}
}

// stalePrefill runs a two-token prefill of variant over one rank whose cache
// holds cache's rows, with prefill base p.
func stalePrefill(run prefillFn, cache *kvcache.Cache, p int) error {
	plan, _ := sharding.NewBatchShard([]int{2}, 1)
	rng := rand.New(rand.NewSource(6))
	_, err := run(&PrefillInput{
		Rank: newTestWorld(1).Rank(0), Plan: plan, P: []int{p},
		Q: tensor.RandN(rng, 2, nh, dh), K: tensor.RandN(rng, 2, nkv, dh), V: tensor.RandN(rng, 2, nkv, dh),
		Cache: cache, Blocks: NewBlockCache(), Elem: elem,
	})
	return err
}

// newStaleCache returns a one-sequence cache holding rows at positions.
func newStaleCache(t *testing.T, rng *rand.Rand, positions []int) *kvcache.Cache {
	t.Helper()
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := len(positions)
	if err := cache.Append(0, tensor.RandN(rng, n, nkv, dh), tensor.RandN(rng, n, nkv, dh), positions); err != nil {
		t.Fatal(err)
	}
	return cache
}

var staleVariants = map[string]prefillFn{"pass-kv": PassKVPrefill, "pass-q": PassQPrefill}

// A cached row at or past the prefill base — a stale or adopted span that
// overlaps the new range — would duplicate positions and silently corrupt
// causality, so every variant rejects it before attending. The guard reads
// the cache's running maximum position.
func TestBlockCacheSyncValidatesPositions(t *testing.T) {
	cache := newStaleCache(t, rand.New(rand.NewSource(4)), []int{0, 5})
	for name, run := range staleVariants {
		if err := stalePrefill(run, cache, 3); err == nil || !strings.Contains(err.Error(), "prefill base") {
			t.Fatalf("%s: cached position 5 >= base 3: err = %v", name, err)
		}
	}
}

// A decode step appends without any base to check against, yet the rows it
// adds must still trip a later prefill's guard: the cache's maximum position
// covers every row that ever entered the sequence, and a base above all of
// them is accepted.
func TestBlockCacheGuardCoversPreviouslyMirroredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cache := newStaleCache(t, rng, []int{0, 1, 2})
	if _, err := PassQDecode(&DecodeInput{
		Rank: newTestWorld(1).Rank(0), NumSeqs: 1, Owned: []DecodeToken{{Seq: 0, Pos: 3}},
		Q: tensor.RandN(rng, 1, nh, dh), K: tensor.RandN(rng, 1, nkv, dh), V: tensor.RandN(rng, 1, nkv, dh),
		Cache: cache, Elem: elem,
	}); err != nil {
		t.Fatal(err)
	}
	for name, run := range staleVariants {
		if err := stalePrefill(run, cache, 3); err == nil || !strings.Contains(err.Error(), "prefill base") {
			t.Fatalf("%s: decoded position 3 >= base 3: err = %v", name, err)
		}
		if err := stalePrefill(run, cache, 4); err != nil {
			t.Fatalf("%s: every cached row below base 4 rejected: %v", name, err)
		}
	}
}
