package ring

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/kvcache"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

// chunkedHarness drives a chunked single-sequence prefill twice — once with
// persistent per-rank BlockCaches, once with the transient rebuild path —
// and hands both outputs plus the persistent caches' stats to the caller.
type chunkedHarness struct {
	n, chunk, chunks int
	variant          prefillFn
}

func (ch chunkedHarness) run(t *testing.T, withBlocks bool) ([]*attention.Output, []*BlockCache, []BlockCacheStats) {
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
		lses := make([]*attention.Output, ch.n)
		for r, o := range chunkOuts {
			locals[r] = o.O
			lses[r] = o
		}
		_ = lses
		outs = append(outs, &attention.Output{O: plan.Unshard(locals), LSE: nil})
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
	return outs, blocks, perChunk
}

// Chunked prefill with a persistent BlockCache must copy only each chunk's
// new rows — never re-gather the cached context — and must produce exactly
// the same attention outputs as the rebuild-every-chunk path.
func TestBlockCacheChunkedPrefillCopiesOnlyNewRows(t *testing.T) {
	for name, variant := range map[string]prefillFn{
		"pass-kv":    PassKVPrefill,
		"pass-q":     PassQPrefill,
		"all-gather": AllGatherPrefill,
	} {
		t.Run(name, func(t *testing.T) {
			ch := chunkedHarness{n: 2, chunk: 8, chunks: 4, variant: variant}
			warm, _, stats := ch.run(t, true)
			cold, _, _ := ch.run(t, false)
			for i := range warm {
				if d := tensor.MaxAbsDiff(warm[i].O, cold[i].O); d != 0 {
					t.Fatalf("chunk %d: block-cache path differs from rebuild path by %v", i, d)
				}
			}
			final := stats[len(stats)-1]
			if final.RebuildRows != 0 || final.Rebuilds != 0 {
				t.Fatalf("chunked prefill rebuilt the mirror: %+v", final)
			}
			// Every chunk's new rows are copied once into the mirror (the
			// chunk advance) across the ranks; the cached prefix is never
			// re-copied, so the total is linear in tokens, not quadratic.
			total := int64(ch.chunk * ch.chunks)
			if final.AppendedRows != total {
				t.Fatalf("appended %d rows, want exactly %d (chunk size x chunks)", final.AppendedRows, total)
			}
			// Per-chunk deltas stay flat at the chunk size — the signature
			// of the zero-rebuild hot path (the seed re-copied the whole
			// growing context each chunk).
			for i := 1; i < len(stats); i++ {
				delta := stats[i].AppendedRows - stats[i-1].AppendedRows
				if delta != int64(ch.chunk) {
					t.Fatalf("chunk %d copied %d rows, want %d", i, delta, ch.chunk)
				}
			}
			if final.Reuses == 0 {
				t.Fatal("no mirror reuses recorded across chunks")
			}
		})
	}
}

// A mirror that ran ahead of a failed ring pass (rows advanced but never
// appended to the kvcache) must rebuild instead of serving stale rows.
func TestBlockCacheAheadMirrorRebuilds(t *testing.T) {
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	k1 := tensor.RandN(rng, 3, nkv, dh)
	v1 := tensor.RandN(rng, 3, nkv, dh)
	if err := cache.Append(0, k1, v1, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	bc := NewBlockCache()
	b, err := bc.sync(cache, 0, -1, nkv*dh)
	if err != nil {
		t.Fatal(err)
	}
	// Optimistically advance with a row the cache never receives.
	ghostK := tensor.RandN(rng, 1, nkv, dh)
	ghostV := tensor.RandN(rng, 1, nkv, dh)
	b.advance(bc, nkv*dh, ghostK.Data, ghostV.Data, []int{3})
	if b.n != 4 {
		t.Fatalf("mirror rows %d, want 4", b.n)
	}
	b2, err := bc.sync(cache, 0, -1, nkv*dh)
	if err != nil {
		t.Fatal(err)
	}
	if b2.n != 3 {
		t.Fatalf("mirror rows after resync %d, want 3", b2.n)
	}
	// Two rebuilds total: the initial mirror build plus the recovery after
	// the mirror ran ahead.
	if bc.Stats().Rebuilds != 2 {
		t.Fatalf("expected initial + recovery rebuilds, stats %+v", bc.Stats())
	}
	k, _, pos, _, err := b2.view(b2.n, nkv, dh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(k, k1); d != 0 {
		t.Fatalf("rebuilt mirror differs from cache by %v", d)
	}
	if len(pos) != 3 || pos[2] != 2 {
		t.Fatalf("rebuilt positions %v", pos)
	}
}

// sync must reject newly mirrored rows at or past the prefill base — the
// same stale-span guard the seed ran over the whole context every chunk.
func TestBlockCacheSyncValidatesPositions(t *testing.T) {
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := cache.Append(0, tensor.RandN(rng, 2, nkv, dh), tensor.RandN(rng, 2, nkv, dh), []int{0, 5}); err != nil {
		t.Fatal(err)
	}
	bc := NewBlockCache()
	if _, err := bc.sync(cache, 0, 3, nkv*dh); err == nil {
		t.Fatal("cached position 5 >= base 3 accepted")
	}
}

// Rows that entered the mirror through an unvalidated path (a decode sweep
// syncs with no base) must still trip the stale-span guard on a later
// prefill sync: the maxPos summary covers the whole mirror, not just the
// rows fetched by the current call.
func TestBlockCacheGuardCoversPreviouslyMirroredRows(t *testing.T) {
	cache, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if err := cache.Append(0, tensor.RandN(rng, 2, nkv, dh), tensor.RandN(rng, 2, nkv, dh), []int{0, 5}); err != nil {
		t.Fatal(err)
	}
	bc := NewBlockCache()
	// Decode-style sync: no base, rows mirror unvalidated.
	if _, err := bc.sync(cache, 0, -1, nkv*dh); err != nil {
		t.Fatal(err)
	}
	// Later prefill sync reuses the mirror (no new rows) but must still
	// reject the overlap.
	if _, err := bc.sync(cache, 0, 3, nkv*dh); err == nil {
		t.Fatal("mirrored position 5 >= base 3 accepted on the reuse path")
	}
}

// A decode stream views its block with one more row every step; the
// sequence-id fill must grow geometrically, not re-allocate per step.
func TestSeqBlockViewGrowsSeqIDsGeometrically(t *testing.T) {
	const steps = 1024
	b := &seqBlock{seqFillVal: -1, maxPos: -1}
	b.ensure(steps, nkv*dh)
	reallocs := 0
	var backing *int
	for rows := 1; rows <= steps; rows++ {
		_, _, _, seq, err := b.view(rows, nkv, dh, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != rows || seq[0] != 3 || seq[rows-1] != 3 {
			t.Fatalf("view(%d): seq ids %v", rows, seq)
		}
		if &seq[0] != backing {
			backing = &seq[0]
			reallocs++
		}
	}
	if reallocs > 11 { // log2(1024) doublings plus the first allocation
		t.Fatalf("%d successive views re-allocated the sequence ids %d times", steps, reallocs)
	}
}
