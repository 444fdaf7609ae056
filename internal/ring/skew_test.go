package ring

import (
	"math/rand"
	"testing"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/kvcache"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

// TestSkewedCacheDistribution drives the Algorithm 2/3 padding path hard:
// cached KV is distributed very unevenly across ranks (one rank holds more
// than half, another holds nothing), so every rank must pad its block to
// L_i = max_j(P_j^i + T_j^i) for the ring messages to stay uniform. The
// distributed result must still match the reference exactly.
func TestSkewedCacheDistribution(t *testing.T) {
	const (
		n      = 3
		cached = 12
		newT   = 4
	)
	rng := rand.New(rand.NewSource(77))
	histK := tensor.RandN(rng, cached, nkv, dh)
	histV := tensor.RandN(rng, cached, nkv, dh)

	// Rank 0 holds positions 0..6, rank 1 holds 7..11, rank 2 holds nothing.
	split := map[int][]int{
		0: {0, 1, 2, 3, 4, 5, 6},
		1: {7, 8, 9, 10, 11},
		2: {},
	}
	for variantIdx, variant := range []prefillFn{PassKVPrefill, PassQPrefill} {
		world := comm.NewWorld(n)
		caches := make([]*kvcache.Cache, n)
		for r := 0; r < n; r++ {
			c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range split[r] {
				if err := c.Append(0, histK.SliceTokens(pos, pos+1), histV.SliceTokens(pos, pos+1), []int{pos}); err != nil {
					t.Fatal(err)
				}
			}
			caches[r] = c
		}
		plan, err := sharding.NewBatchShard([]int{newT}, n)
		if err != nil {
			t.Fatal(err)
		}
		fq := tensor.RandN(rng, newT, nh, dh)
		fk := tensor.RandN(rng, newT, nkv, dh)
		fv := tensor.RandN(rng, newT, nkv, dh)
		outs, err := comm.RunCollect(world, func(r *comm.Rank) (*attention.Output, error) {
			return variant(&PrefillInput{
				Rank: r, Plan: plan, P: []int{cached},
				Q: plan.Shard(fq, r.ID), K: plan.Shard(fk, r.ID), V: plan.Shard(fv, r.ID),
				Cache: caches[r.ID], Elem: elem,
			})
		})
		if err != nil {
			t.Fatalf("variant %d: %v", variantIdx, err)
		}
		locals := make([]*tensor.Tensor, n)
		for r, o := range outs {
			locals[r] = o.O
		}
		got := plan.Unshard(locals)

		ref, err := attention.GQA(fq, tensor.Concat(histK, fk), tensor.Concat(histV, fv),
			attention.PartialCausal(newT, cached))
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(ref.O, got); d > tol {
			t.Fatalf("variant %d with skewed caches deviates by %v", variantIdx, d)
		}
	}
}

// TestSkewedCacheUniformMessages checks the invariant behind the padding:
// under pass-KV with skewed caches, every rank still sends identical-size
// messages (the collective-interface requirement the paper calls out).
func TestSkewedCacheUniformMessages(t *testing.T) {
	const (
		n      = 3
		cached = 9
		newT   = 3
	)
	rng := rand.New(rand.NewSource(78))
	histK := tensor.RandN(rng, cached, nkv, dh)
	histV := tensor.RandN(rng, cached, nkv, dh)
	world := comm.NewWorld(n)
	caches := make([]*kvcache.Cache, n)
	split := map[int][]int{0: {0, 1, 2, 3, 4, 5}, 1: {6, 7, 8}, 2: {}}
	for r := 0; r < n; r++ {
		c, _ := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
		for _, pos := range split[r] {
			if err := c.Append(0, histK.SliceTokens(pos, pos+1), histV.SliceTokens(pos, pos+1), []int{pos}); err != nil {
				t.Fatal(err)
			}
		}
		caches[r] = c
	}
	plan, _ := sharding.NewBatchShard([]int{newT}, n)
	fq := tensor.RandN(rng, newT, nh, dh)
	fk := tensor.RandN(rng, newT, nkv, dh)
	fv := tensor.RandN(rng, newT, nkv, dh)
	if err := world.Run(func(r *comm.Rank) error {
		_, err := PassKVPrefill(&PrefillInput{
			Rank: r, Plan: plan, P: []int{cached},
			Q: plan.Shard(fq, r.ID), K: plan.Shard(fk, r.ID), V: plan.Shard(fv, r.ID),
			Cache: caches[r.ID], Elem: elem,
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Every rank must have sent exactly the same ring byte volume despite
	// holding 6 / 3 / 0 cached tokens.
	first := world.RankStats(0).Bytes[comm.KindSendRecv]
	if first <= 0 {
		t.Fatal("no ring traffic recorded")
	}
	for r := 1; r < n; r++ {
		if got := world.RankStats(r).Bytes[comm.KindSendRecv]; got != first {
			t.Fatalf("rank %d sent %v ring bytes, rank 0 sent %v — messages not uniform", r, got, first)
		}
	}
}
