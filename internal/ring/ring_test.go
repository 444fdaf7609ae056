package ring

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/kvcache"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

const (
	tol  = 1e-4
	nh   = 8
	nkv  = 2
	dh   = 4
	elem = 2.0
)

// harness drives a simulated multi-turn conversation over N CP ranks and
// checks every distributed result against single-device reference attention.
type harness struct {
	t      *testing.T
	n      int
	rng    *rand.Rand
	world  *comm.World
	caches []*kvcache.Cache
	// Per-sequence full history in position order (the oracle's view).
	histK, histV []*tensor.Tensor
	// Every per-rank output in turn order, for bitwise cross-run parity
	// checks (the overlap tests replay a scenario and diff these).
	outs []*attention.Output
}

// totalStats sums the send-side counters of every rank of w.
func totalStats(w *comm.World) comm.Stats {
	out := comm.Stats{Messages: map[comm.Kind]int64{}, Bytes: map[comm.Kind]float64{}}
	for r := 0; r < w.N; r++ {
		s := w.RankStats(r)
		for k, v := range s.Messages {
			out.Messages[k] += v
		}
		for k, v := range s.Bytes {
			out.Bytes[k] += v
		}
	}
	return out
}

// appendOutput returns acc with a copy of o's rows appended on the token
// axis: a sweep's output lives in its arena and the next sweep reuses it.
func appendOutput(acc, o *attention.Output) *attention.Output {
	return &attention.Output{O: tensor.Concat(acc.O, o.O), LSE: append(acc.LSE, o.LSE...)}
}

func newHarness(t *testing.T, seed int64, n, numSeqs int) *harness {
	t.Helper()
	h := &harness{t: t, n: n, rng: rand.New(rand.NewSource(seed)), world: comm.NewWorld(n)}
	h.world.RecvTimeout = 5 * time.Second
	for r := 0; r < n; r++ {
		c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		h.caches = append(h.caches, c)
	}
	for s := 0; s < numSeqs; s++ {
		h.histK = append(h.histK, tensor.New(0, nkv, dh))
		h.histV = append(h.histV, tensor.New(0, nkv, dh))
	}
	return h
}

func (h *harness) pLens() []int {
	p := make([]int, len(h.histK))
	for i := range p {
		p[i] = h.histK[i].Tokens
	}
	return p
}

type prefillFn func(*PrefillInput) (*attention.Output, error)

// prefillTurn runs one (full or partial) prefill turn with the given variant
// and verifies the fused output against the reference, then persists KV.
func (h *harness) prefillTurn(lens []int, variant prefillFn, name string) {
	h.t.Helper()
	plan, err := sharding.NewBatchShard(lens, h.n)
	if err != nil {
		h.t.Fatal(err)
	}
	p := h.pLens()
	total := plan.TotalTokens()
	fq := tensor.RandN(h.rng, total, nh, dh)
	fk := tensor.RandN(h.rng, total, nkv, dh)
	fv := tensor.RandN(h.rng, total, nkv, dh)

	outs, err := comm.RunCollect(h.world, func(r *comm.Rank) (*attention.Output, error) {
		in := &PrefillInput{
			Rank: r, Plan: plan, P: p,
			Q: plan.Shard(fq, r.ID), K: plan.Shard(fk, r.ID), V: plan.Shard(fv, r.ID),
			Cache: h.caches[r.ID], Elem: elem,
		}
		return variant(in)
	})
	if err != nil {
		h.t.Fatalf("%s: %v", name, err)
	}
	h.outs = append(h.outs, outs...)
	locals := make([]*tensor.Tensor, h.n)
	for r, o := range outs {
		locals[r] = o.O
	}
	got := plan.Unshard(locals)

	// Reference: per sequence, partial prefill against full history.
	for i, T := range lens {
		q := fq.SliceTokens(plan.SeqOffset(i), plan.SeqOffset(i)+T)
		k := tensor.Concat(h.histK[i], fk.SliceTokens(plan.SeqOffset(i), plan.SeqOffset(i)+T))
		v := tensor.Concat(h.histV[i], fv.SliceTokens(plan.SeqOffset(i), plan.SeqOffset(i)+T))
		ref, err := attention.GQA(q, k, v, attention.PartialCausal(T, p[i]))
		if err != nil {
			h.t.Fatal(err)
		}
		gotSeq := got.SliceTokens(plan.SeqOffset(i), plan.SeqOffset(i)+T)
		if d := tensor.MaxAbsDiff(ref.O, gotSeq); d > tol {
			h.t.Fatalf("%s: sequence %d deviates from reference by %v (N=%d lens=%v P=%v)",
				name, i, d, h.n, lens, p)
		}
	}

	// Persist KV shards and extend the oracle history.
	for r := 0; r < h.n; r++ {
		if err := AppendLocalKV(h.caches[r], plan, r, p, nil, plan.Shard(fk, r), plan.Shard(fv, r)); err != nil {
			h.t.Fatal(err)
		}
	}
	for i, T := range lens {
		h.histK[i] = tensor.Concat(h.histK[i], fk.SliceTokens(plan.SeqOffset(i), plan.SeqOffset(i)+T))
		h.histV[i] = tensor.Concat(h.histV[i], fv.SliceTokens(plan.SeqOffset(i), plan.SeqOffset(i)+T))
	}
}

// decodeStep runs one batched decode step and verifies every sequence's
// output against reference attention over its full history.
func (h *harness) decodeStep(step int) {
	h.t.Helper()
	numSeqs := len(h.histK)
	qs := make([]*tensor.Tensor, numSeqs)
	ks := make([]*tensor.Tensor, numSeqs)
	vs := make([]*tensor.Tensor, numSeqs)
	for s := 0; s < numSeqs; s++ {
		qs[s] = tensor.RandN(h.rng, 1, nh, dh)
		ks[s] = tensor.RandN(h.rng, 1, nkv, dh)
		vs[s] = tensor.RandN(h.rng, 1, nkv, dh)
	}
	p := h.pLens()

	owned := make([][]DecodeToken, h.n)
	for s := 0; s < numSeqs; s++ {
		r := sharding.DecodeOwner(s, step, h.n)
		owned[r] = append(owned[r], DecodeToken{Seq: s, Pos: p[s]})
	}
	outs, err := comm.RunCollect(h.world, func(r *comm.Rank) (*attention.Output, error) {
		toks := owned[r.ID]
		q := tensor.New(len(toks), nh, dh)
		k := tensor.New(len(toks), nkv, dh)
		v := tensor.New(len(toks), nkv, dh)
		for i, tok := range toks {
			copy(q.Row2D(i), qs[tok.Seq].Row2D(0))
			copy(k.Row2D(i), ks[tok.Seq].Row2D(0))
			copy(v.Row2D(i), vs[tok.Seq].Row2D(0))
		}
		return PassQDecode(&DecodeInput{
			Rank: r, NumSeqs: numSeqs, Owned: toks, Q: q, K: k, V: v,
			Cache: h.caches[r.ID], Elem: elem,
		})
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.outs = append(h.outs, outs...)
	for s := 0; s < numSeqs; s++ {
		r := sharding.DecodeOwner(s, step, h.n)
		idx := -1
		for i, tok := range owned[r] {
			if tok.Seq == s {
				idx = i
			}
		}
		fullK := tensor.Concat(h.histK[s], ks[s])
		fullV := tensor.Concat(h.histV[s], vs[s])
		ref, err := attention.GQA(qs[s], fullK, fullV, attention.PartialCausal(1, fullK.Tokens-1))
		if err != nil {
			h.t.Fatal(err)
		}
		gotRow := outs[r].O.SliceTokens(idx, idx+1)
		if d := tensor.MaxAbsDiff(ref.O, gotRow); d > tol {
			h.t.Fatalf("decode step %d sequence %d deviates by %v", step, s, d)
		}
		h.histK[s] = fullK
		h.histV[s] = fullV
	}
}

func TestPassKVFullPrefillMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		h := newHarness(t, int64(100+n), n, 2)
		h.prefillTurn([]int{9, 5}, PassKVPrefill, "pass-kv")
	}
}

func TestPassQFullPrefillMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		h := newHarness(t, int64(200+n), n, 2)
		h.prefillTurn([]int{7, 12}, PassQPrefill, "pass-q")
	}
}

func TestMultiTurnPartialPrefillMixedVariants(t *testing.T) {
	// Three turns alternating variants: the persistent KV produced by one
	// variant must be consumable by the others (they share cache layout).
	h := newHarness(t, 42, 3, 2)
	h.prefillTurn([]int{8, 6}, PassKVPrefill, "turn1 pass-kv")
	h.prefillTurn([]int{3, 5}, PassQPrefill, "turn2 pass-q")
	h.prefillTurn([]int{4, 2}, PassKVPrefill, "turn3 pass-kv")
}

func TestSingleTokenPartialPrefill(t *testing.T) {
	// T=1 partial prefill (the decode-like limit of prefill).
	h := newHarness(t, 7, 2, 1)
	h.prefillTurn([]int{10}, PassKVPrefill, "seed")
	h.prefillTurn([]int{1}, PassQPrefill, "one-token pass-q")
	h.prefillTurn([]int{1}, PassKVPrefill, "one-token pass-kv")
}

func TestDecodeLossless(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		h := newHarness(t, int64(400+n), n, 3)
		h.prefillTurn([]int{6, 9, 4}, PassKVPrefill, "prefill")
		for step := 0; step < 5; step++ {
			h.decodeStep(step)
		}
	}
}

func TestPrefillAfterDecode(t *testing.T) {
	// Multi-turn chat: prefill, decode a response, then a follow-up partial
	// prefill that must attend to decode-produced KV as well.
	h := newHarness(t, 11, 2, 2)
	h.prefillTurn([]int{5, 7}, PassKVPrefill, "turn1")
	for step := 0; step < 3; step++ {
		h.decodeStep(step)
	}
	h.prefillTurn([]int{4, 3}, PassQPrefill, "turn2 after decode")
	h.prefillTurn([]int{2, 6}, PassKVPrefill, "turn3 after decode")
}

func TestDecodeCacheBalance(t *testing.T) {
	// §3.6: round-robin offsetting keeps per-rank KV growth balanced even at
	// batch size 1, where a static owner would pile everything on one rank.
	n := 4
	h := newHarness(t, 13, n, 1)
	h.prefillTurn([]int{8}, PassKVPrefill, "prefill")
	base := make([]int, n)
	for r := 0; r < n; r++ {
		base[r] = h.caches[r].TotalTokens()
	}
	steps := 12
	for step := 0; step < steps; step++ {
		h.decodeStep(step)
	}
	min, max := 1<<30, 0
	for r := 0; r < n; r++ {
		g := h.caches[r].TotalTokens() - base[r]
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if max-min > 1 {
		t.Fatalf("decode KV growth imbalance %d (max %d min %d), want <= 1", max-min, max, min)
	}
}

func TestPassKVByteAccounting(t *testing.T) {
	// Each rank sends its KV block N-1 times; the block has sum_i L_i tokens
	// where L_i = max over ranks of per-rank KV rows for sequence i.
	n := 4
	h := newHarness(t, 21, n, 2)
	lens := []int{16, 8}
	h.prefillTurn(lens, PassKVPrefill, "pass-kv")
	plan, _ := sharding.NewBatchShard(lens, n)
	blockTokens := 0
	for i := range lens {
		maxRows := 0
		for r := 0; r < n; r++ {
			rows := 0
			for slot, s := range plan.LocalSeqs(r) {
				if s == i && plan.LocalPositions(r)[slot] != sharding.Pad {
					rows++
				}
			}
			if rows > maxRows {
				maxRows = rows
			}
		}
		blockTokens += maxRows
	}
	wantPerRank := float64(n-1) * (2*float64(blockTokens*nkv*dh)*elem + float64(blockTokens)*metaBytesPerToken)
	for r := 0; r < n; r++ {
		got := h.world.RankStats(r).Bytes[comm.KindSendRecv]
		if got != wantPerRank {
			t.Fatalf("rank %d pass-KV sendrecv bytes = %v, want %v", r, got, wantPerRank)
		}
	}
	if totalStats(h.world).Bytes[comm.KindAll2All] != 0 {
		t.Fatal("pass-KV must not use All2All")
	}
}

func TestPassQByteAccounting(t *testing.T) {
	n := 4
	h := newHarness(t, 22, n, 1)
	lens := []int{16}
	h.prefillTurn(lens, PassQPrefill, "pass-q")
	plan, _ := sharding.NewBatchShard(lens, n)
	localLen := plan.LocalLen(0)
	wantRing := float64(n-1) * (float64(localLen*nh*dh)*elem + float64(localLen)*metaBytesPerToken)
	for r := 0; r < n; r++ {
		got := h.world.RankStats(r).Bytes[comm.KindSendRecv]
		if got != wantRing {
			t.Fatalf("rank %d pass-Q ring bytes = %v, want %v", r, got, wantRing)
		}
	}
	// All2All carries (N-1) output blocks per rank: O (nh*dh) + LSE (nh).
	wantA2A := float64(n-1) * (float64(localLen*nh*dh)*elem + float64(localLen*nh)*elem)
	for r := 0; r < n; r++ {
		got := h.world.RankStats(r).Bytes[comm.KindAll2All]
		if got != wantA2A {
			t.Fatalf("rank %d pass-Q all2all bytes = %v, want %v", r, got, wantA2A)
		}
	}
}

func TestPassQCheaperOnHighCacheHit(t *testing.T) {
	// The paper's Equation 1 regime: with a large persistent cache (P >> T),
	// circulating Q must move far fewer ring bytes than circulating KV.
	n := 2
	hKV := newHarness(t, 23, n, 1)
	hKV.prefillTurn([]int{40}, PassKVPrefill, "seed")
	seedBytes := totalStats(hKV.world).Bytes[comm.KindSendRecv]
	hKV.prefillTurn([]int{2}, PassKVPrefill, "tail-kv")
	kvBytes := totalStats(hKV.world).Bytes[comm.KindSendRecv] - seedBytes

	hQ := newHarness(t, 23, n, 1)
	hQ.prefillTurn([]int{40}, PassKVPrefill, "seed")
	seedBytes = totalStats(hQ.world).Bytes[comm.KindSendRecv]
	hQ.prefillTurn([]int{2}, PassQPrefill, "tail-q")
	qBytes := totalStats(hQ.world).Bytes[comm.KindSendRecv] - seedBytes

	if qBytes >= kvBytes {
		t.Fatalf("pass-Q ring bytes %v >= pass-KV %v despite 95%% cache hit", qBytes, kvBytes)
	}
}

func TestPassKVCheaperOnFullPrefill(t *testing.T) {
	// Full prefill with GQA (NH=8, NKV=2 -> NH > 2*NKV): passing KV is the
	// smaller message, per §3.4.
	n := 2
	hKV := newHarness(t, 24, n, 1)
	hKV.prefillTurn([]int{32}, PassKVPrefill, "full-kv")
	kvBytes := totalStats(hKV.world).Bytes[comm.KindSendRecv]

	hQ := newHarness(t, 24, n, 1)
	hQ.prefillTurn([]int{32}, PassQPrefill, "full-q")
	qBytes := totalStats(hQ.world).Bytes[comm.KindSendRecv]

	if kvBytes >= qBytes {
		t.Fatalf("pass-KV ring bytes %v >= pass-Q %v on full prefill", kvBytes, qBytes)
	}
}

// prefillCmd is one prefill command of prefillRun: a fused batch of cache
// sequences, their chunk lengths, and the ring variant.
type prefillCmd struct {
	seqs, lens []int
	run        prefillFn
}

// prefillRun drives cmds over world the way a two-layer engine does — each
// layer with its own cache and mirror, both on the rank's one arena when
// scratch is set, the rank's Q/K/V rows rewritten in place for the second
// layer (a fresh tensor per layer otherwise), KV persisted after each pass —
// and returns every rank's output of every pass, cloned.
func prefillRun(t *testing.T, world *comm.World, cmds []prefillCmd, scratch bool) []*attention.Output {
	t.Helper()
	const layers = 2
	n := world.N
	rng := rand.New(rand.NewSource(57))
	caches := make([][layers]*kvcache.Cache, n)
	blocks := make([][layers]*BlockCache, n)
	scratches := make([]*PrefillScratch, n)
	qs, ks, vs := make([]tensor.Tensor, n), make([]tensor.Tensor, n), make([]tensor.Tensor, n)
	for r := range caches {
		for l := 0; l < layers; l++ {
			c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			caches[r][l], blocks[r][l] = c, NewBlockCache()
		}
		if scratch {
			scratches[r] = new(PrefillScratch)
		}
	}
	cached := map[int]int{}
	var all []*attention.Output
	for ci, cmd := range cmds {
		plan, err := sharding.NewBatchShard(cmd.lens, n)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]int, len(cmd.seqs))
		for i, s := range cmd.seqs {
			p[i] = cached[s]
		}
		var fq, fk, fv [layers]*tensor.Tensor
		for l := range fq {
			fq[l] = tensor.RandN(rng, plan.TotalTokens(), nh, dh)
			fk[l], fv[l] = tensor.RandN(rng, plan.TotalTokens(), nkv, dh), tensor.RandN(rng, plan.TotalTokens(), nkv, dh)
		}
		outs, err := comm.RunCollect(world, func(r *comm.Rank) (*attention.Output, error) {
			passes := new(attention.Output)
			for l := 0; l < layers; l++ {
				q, k, v := plan.Shard(fq[l], r.ID), plan.Shard(fk[l], r.ID), plan.Shard(fv[l], r.ID)
				if scratch {
					copy(qs[r.ID].Resize(q.Tokens, nh, dh).Data, q.Data)
					copy(ks[r.ID].Resize(k.Tokens, nkv, dh).Data, k.Data)
					copy(vs[r.ID].Resize(v.Tokens, nkv, dh).Data, v.Data)
					q, k, v = &qs[r.ID], &ks[r.ID], &vs[r.ID]
				}
				out, err := cmd.run(&PrefillInput{
					Rank: r, Plan: plan, P: p, SeqIDs: cmd.seqs, Q: q, K: k, V: v,
					Cache: caches[r.ID][l], Blocks: blocks[r.ID][l], Scratch: scratches[r.ID], Elem: elem,
				})
				if err != nil {
					return nil, err
				}
				if err := AppendLocalKV(caches[r.ID][l], plan, r.ID, p, cmd.seqs, k, v); err != nil {
					return nil, err
				}
				passes = appendOutput(passes, out)
			}
			return passes, nil
		})
		if err != nil {
			t.Fatalf("command %d: %v", ci, err)
		}
		all = append(all, outs...)
		for i, s := range cmd.seqs {
			cached[s] += cmd.lens[i]
		}
	}
	return all
}

// The prefill arena changes where a pass's buffers live, never what lands in
// them: every rank's output of every pass with a PrefillScratch equals the
// allocate-per-call pass's bit for bit, at N = 2, 3 and 4, over commands
// whose chunk lengths grow and shrink, whose variant switches mid-sequence,
// and which fuse up to three sequences into one circulating block. Under
// -race this is also the by-pointer hazard's test: a rank that rewrote a
// query block, a partial or a layer's circulating KV block while a peer still
// read it would be a reported race.
func TestPrefillScratchMatchesPerCallAllocationExactly(t *testing.T) {
	cmds := []prefillCmd{
		{seqs: []int{0}, lens: []int{13}, run: PassKVPrefill},
		{seqs: []int{0}, lens: []int{2}, run: PassQPrefill},
		{seqs: []int{1, 2, 0}, lens: []int{9, 1, 6}, run: PassKVPrefill},
		{seqs: []int{1}, lens: []int{11}, run: PassQPrefill},
		{seqs: []int{2, 1}, lens: []int{5, 3}, run: PassQPrefill},
		{seqs: []int{0}, lens: []int{1}, run: PassKVPrefill},
		{seqs: []int{3, 2}, lens: []int{16, 7}, run: PassKVPrefill},
	}
	for _, n := range []int{2, 3, 4} {
		fresh := prefillRun(t, newTestWorld(n), cmds, false)
		arena := prefillRun(t, newTestWorld(n), cmds, true)
		requireSameOutputs(t, fresh, arena)
	}
}

func TestLinkFailurePropagates(t *testing.T) {
	n := 3
	h := newHarness(t, 25, n, 1)
	h.world.FailLink(0, 1)
	h.world.RecvTimeout = 500 * time.Millisecond
	plan, _ := sharding.NewBatchShard([]int{8}, n)
	fq := tensor.RandN(h.rng, 8, nh, dh)
	fk := tensor.RandN(h.rng, 8, nkv, dh)
	fv := tensor.RandN(h.rng, 8, nkv, dh)
	err := h.world.Run(func(r *comm.Rank) error {
		_, err := PassKVPrefill(&PrefillInput{
			Rank: r, Plan: plan, P: []int{0},
			Q: plan.Shard(fq, r.ID), K: plan.Shard(fk, r.ID), V: plan.Shard(fv, r.ID),
			Cache: h.caches[r.ID], Elem: elem,
		})
		return err
	})
	if err == nil {
		t.Fatal("prefill over failed link reported success")
	}
	if !strings.Contains(err.Error(), "failed") && !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPrefillInputValidation(t *testing.T) {
	w := comm.NewWorld(2)
	plan, _ := sharding.NewBatchShard([]int{4}, 2)
	cache, _ := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
	bad := &PrefillInput{
		Rank: w.Rank(0), Plan: plan, P: []int{0, 0}, // wrong P length
		Q: tensor.New(2, nh, dh), K: tensor.New(2, nkv, dh), V: tensor.New(2, nkv, dh),
		Cache: cache, Elem: elem,
	}
	if _, err := PassKVPrefill(bad); err == nil {
		t.Fatal("P length mismatch accepted")
	}
	bad.P = []int{0}
	bad.Q = tensor.New(1, nh, dh) // wrong local length
	if _, err := PassKVPrefill(bad); err == nil {
		t.Fatal("local length mismatch accepted")
	}
}

func TestDecodeInputValidation(t *testing.T) {
	w := comm.NewWorld(1)
	cache, _ := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
	in := &DecodeInput{
		Rank: w.Rank(0), NumSeqs: 0,
		Q: tensor.New(0, nh, dh), K: tensor.New(0, nkv, dh), V: tensor.New(0, nkv, dh),
		Cache: cache, Elem: elem,
	}
	if _, err := PassQDecode(in); err == nil {
		t.Fatal("zero batch accepted")
	}
	in.NumSeqs = 1
	in.Owned = []DecodeToken{{Seq: -1, Pos: 0}}
	in.Q = tensor.New(1, nh, dh)
	in.K = tensor.New(1, nkv, dh)
	in.V = tensor.New(1, nkv, dh)
	if _, err := PassQDecode(in); err == nil {
		t.Fatal("negative sequence id accepted")
	}
}

// The paper's central exactness property, as a randomized invariant: for any
// rank count, batch shape and cache state, pass-KV and pass-Q both
// reproduce the reference.
func TestPropertyVariantsAgreeWithReference(t *testing.T) {
	f := func(seed int64, rawN, rawB, rawT1, rawT2 uint8) bool {
		n := int(rawN%4) + 1
		numSeqs := int(rawB%2) + 1
		lens1 := make([]int, numSeqs)
		lens2 := make([]int, numSeqs)
		rng := rand.New(rand.NewSource(seed))
		for i := range lens1 {
			lens1[i] = int(rawT1)%10 + 1 + rng.Intn(4)
			lens2[i] = int(rawT2)%6 + 1
		}
		variants := []prefillFn{PassKVPrefill, PassQPrefill}
		h := newHarness(t, seed, n, numSeqs)
		h.prefillTurn(lens1, variants[rng.Intn(2)], "turn1")
		h.prefillTurn(lens2, variants[rng.Intn(2)], "turn2")
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
