// Package ring implements the paper's ring-attention variants for
// context-parallel inference:
//
//   - PassKVPrefill — fused variable-sequence-length ring pass-KV partial
//     prefill (Algorithm 2). Key/value shards circulate around the CP ranks
//     while queries stay put; per-chunk partial outputs are merged locally
//     with the merge-attention operator.
//   - PassQPrefill — ring pass-Q partial prefill (Algorithm 3). Query shards
//     circulate while KV stays put; partial outputs end up scattered across
//     ranks and are restored to their source ranks with an All2All before
//     merging.
//   - PassQDecode — batched ring pass-Q decode (Algorithm 4) with
//     round-robin, per-step-offset assignment of decode tokens to ranks so
//     KV-cache growth stays balanced (§3.6).
//   - AllGatherPrefill — the all-gather pass-KV baseline used in Llama3
//     training, implemented for the ablation comparison (§3.5.2).
//
// All variants are lossless: their outputs are verified against a
// single-device reference attention in the package tests. Each rank runs in
// its own goroutine and communicates only through the comm package, so the
// implementations read like the SPMD pseudo-code in the paper.
package ring

import (
	"fmt"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// metaBytes is the accounted overhead for per-token metadata (position and
// sequence/batch ids) attached to a circulating message.
const metaBytesPerToken = 8

// PrefillInput is one rank's view of a fused varseq (partial) prefill.
type PrefillInput struct {
	Rank *comm.Rank           // this rank's communicator
	Plan *sharding.BatchShard // load-balanced plan over the new tokens
	P    []int                // per-sequence previously-cached global length P^i
	// Q, K, V hold the rank's new-token shard in plan order: Q is
	// [LocalLen, NH, DH]; K and V are [LocalLen, NKV, DH]. Padding slots
	// must be zero rows (sharding.BatchShard.Shard produces them).
	Q, K, V *tensor.Tensor
	Cache   *kvcache.Cache // persistent KV from earlier turns; may be nil
	// Blocks caches the assembled per-sequence KV segments across a
	// prefill's chunks (one BlockCache per rank per layer, owned by the rank
	// goroutine). Nil falls back to rebuilding the block from Cache on every
	// call, the seed engine's cost profile.
	Blocks *BlockCache
	Elem   float64 // accounted bytes per element (e in the paper)
	// SeqIDs maps each batch-plan sequence index to its persistent cache
	// key, so an engine can prefill different batch compositions against
	// long-lived conversations. Nil means the identity mapping.
	SeqIDs []int
	// Trace, when non-nil, accumulates this sweep's per-phase wall time
	// (attention compute vs ring SendRecv vs All2All — the paper's Table
	// 5/8 axes). Timing only observes the existing control flow: a nil
	// timer takes no clock readings and the compute path is identical
	// either way, preserving bit-identical outputs.
	Trace *trace.SweepTimer
}

// seqKey returns the cache key of batch-plan sequence i.
func (in *PrefillInput) seqKey(i int) int {
	if in.SeqIDs == nil {
		return i
	}
	return in.SeqIDs[i]
}

func (in *PrefillInput) validate() error {
	if in.Rank == nil || in.Plan == nil {
		return fmt.Errorf("ring: nil rank or plan")
	}
	if len(in.P) != len(in.Plan.SeqLens) {
		return fmt.Errorf("ring: P has %d entries for %d sequences", len(in.P), len(in.Plan.SeqLens))
	}
	want := in.Plan.LocalLen(in.Rank.ID)
	if in.Q.Tokens != want || in.K.Tokens != want || in.V.Tokens != want {
		return fmt.Errorf("ring: local shard length %d/%d/%d, want %d",
			in.Q.Tokens, in.K.Tokens, in.V.Tokens, want)
	}
	if in.Elem <= 0 {
		return fmt.Errorf("ring: non-positive element size %v", in.Elem)
	}
	if in.SeqIDs != nil && len(in.SeqIDs) != len(in.Plan.SeqLens) {
		return fmt.Errorf("ring: %d seq ids for %d sequences", len(in.SeqIDs), len(in.Plan.SeqLens))
	}
	return nil
}

// qMask builds the query-side mask of a rank's local shard: global position
// P^i + p for slot of sequence i at new-token position p, Pad slots masked.
func (in *PrefillInput) qMask() (pos, seq []int) {
	lp := in.Plan.LocalPositions(in.Rank.ID)
	ls := in.Plan.LocalSeqs(in.Rank.ID)
	pos = make([]int, len(lp))
	seq = append([]int(nil), ls...)
	for i, p := range lp {
		if p == sharding.Pad {
			pos[i] = -1
		} else {
			pos[i] = in.P[ls[i]] + p
		}
	}
	return pos, seq
}

// The circulating payloads — KV tiles for pass-KV, query blocks for pass-Q
// and decode, partial outputs for the All2All — are the exported wire types
// (comm/wire), so the same structs flow through in-process mailboxes by
// pointer and across TCP through the deterministic codec. Their accounted
// sizes stay the paper's analytic element counts:

func kvBlockBytes(b *wire.KVBlock, elem float64) float64 {
	return b.K.Bytes(elem) + b.V.Bytes(elem) + float64(len(b.Pos))*metaBytesPerToken
}

func qBlockBytes(b *wire.QBlock, elem float64) float64 {
	return b.Q.Bytes(elem) + float64(len(b.Pos))*metaBytesPerToken
}

func oBlockBytes(b *wire.OBlock, elem float64) float64 {
	// Output payload plus one LSE scalar per (token, head), as in the
	// paper's All2All cost (N-1)(D+1)Te (Appendix C).
	return b.Out.O.Bytes(elem) + float64(len(b.Out.LSE))*elem
}

// localKV assembles this rank's stationary/initial KV block: for every
// sequence, the cached rows followed by the rank's new non-padding rows,
// padded to the agreed per-sequence length L_i (Algorithm 2's
// concat_i(pad(P_k^i + T_k^i, L_i))). padTo[i] < 0 means "no padding".
//
// With a persistent Blocks cache the call is incremental: the cached-context
// prefix lives in the sequence's mirror from earlier chunks, so only this
// chunk's new rows (and padding) are written — no O(context) re-gather. For
// a single-sequence plan the returned block is a zero-copy view of the
// mirror; fused multi-sequence plans still concatenate the per-sequence
// segments into one contiguous block.
func (in *PrefillInput) localKV(padTo []int) (*wire.KVBlock, error) {
	nkv, dh := in.K.Heads, in.K.Dim
	rowLen := nkv * dh
	blocks := in.Blocks
	if blocks == nil {
		// Transient mirror: rebuilt from Cache on every call, matching the
		// seed path for direct ring users that keep no cluster state.
		blocks = NewBlockCache()
	}
	lp := in.Plan.LocalPositions(in.Rank.ID)
	ls := in.Plan.LocalSeqs(in.Rank.ID)
	single := len(in.Plan.SeqLens) == 1

	var ks, vs []*tensor.Tensor
	var pos, seq []int
	var kRows, vRows [][]float32
	var newPos []int
	for i := range in.Plan.SeqLens {
		// Mirror the cached context. A cached row at or past P^i (a stale or
		// adopted span that overlaps the new range) would duplicate
		// positions and silently corrupt causality; sync rejects it.
		b, err := blocks.sync(in.Cache, in.seqKey(i), in.P[i], rowLen)
		if err != nil {
			return nil, fmt.Errorf("ring: rank %d sequence %d has %w", in.Rank.ID, i, err)
		}
		// Append this chunk's new rows (plan order, padding slots skipped)
		// ahead of the kvcache; the engine persists the same rows right
		// after the ring pass.
		kRows, vRows, newPos = kRows[:0], vRows[:0], newPos[:0]
		for slot, s := range ls {
			if s == i && lp[slot] != sharding.Pad {
				kRows = append(kRows, in.K.Row2D(slot))
				vRows = append(vRows, in.V.Row2D(slot))
				newPos = append(newPos, in.P[i]+lp[slot])
			}
		}
		b.advance(blocks, rowLen, kRows, vRows, newPos)
		segTokens := b.n
		padCount := 0
		if padTo != nil && padTo[i] >= 0 {
			if segTokens > padTo[i] {
				return nil, fmt.Errorf("ring: rank %d sequence %d has %d KV rows > pad target %d",
					in.Rank.ID, i, segTokens, padTo[i])
			}
			padCount = padTo[i] - segTokens
			b.pad(rowLen, padCount)
		}
		total := segTokens + padCount
		if total == 0 {
			continue
		}
		kT, vT, p, s2, err := b.view(total, nkv, dh, i)
		if err != nil {
			return nil, err
		}
		if single {
			return &wire.KVBlock{K: kT, V: vT, Pos: p, Seq: s2}, nil
		}
		ks = append(ks, kT)
		vs = append(vs, vT)
		pos = append(pos, p...)
		seq = append(seq, s2...)
	}
	k := tensor.Concat(ks...)
	v := tensor.Concat(vs...)
	if k.Tokens == 0 {
		k = tensor.New(0, nkv, dh)
		v = tensor.New(0, nkv, dh)
	}
	return &wire.KVBlock{K: k, V: v, Pos: pos, Seq: seq}, nil
}

// agreeSegmentLengths computes L_i = max_j(P_j^i + T_j^i) for every sequence
// by exchanging per-rank segment lengths (a tiny metadata AllGather, 8 bytes
// per sequence).
func agreeSegmentLengths(in *PrefillInput) ([]int, error) {
	mine := make([]int, len(in.Plan.SeqLens))
	lp := in.Plan.LocalPositions(in.Rank.ID)
	ls := in.Plan.LocalSeqs(in.Rank.ID)
	for i := range mine {
		n := 0
		if in.Cache != nil {
			n = in.Cache.SeqLen(in.seqKey(i))
		}
		for slot, s := range ls {
			if s == i && lp[slot] != sharding.Pad {
				n++
			}
		}
		mine[i] = n
	}
	all, err := in.Rank.AllGather(mine, float64(len(mine))*metaBytesPerToken)
	if err != nil {
		return nil, err
	}
	max := make([]int, len(mine))
	for _, a := range all {
		lens, ok := a.([]int)
		if !ok || len(lens) != len(mine) {
			return nil, fmt.Errorf("ring: malformed segment-length gather")
		}
		for i, l := range lens {
			if l > max[i] {
				max[i] = l
			}
		}
	}
	return max, nil
}

// PassKVPrefill runs Algorithm 2 on one rank: the rank's KV block circulates
// around the ring while the local queries attend to every arriving block;
// partials merge locally. Returns the local attention output in plan order
// (padding slots are zero rows).
func PassKVPrefill(in *PrefillInput) (*attention.Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	n := in.Rank.N()
	segLens, err := agreeSegmentLengths(in)
	if err != nil {
		return nil, err
	}
	cur, err := in.localKV(segLens)
	if err != nil {
		return nil, err
	}
	qPos, qSeq := in.qMask()
	out := attention.NewOutput(in.Q.Tokens, in.Q.Heads, in.Q.Dim)
	// One partial buffer recycled across all n ring steps; GQAInto resets it.
	partial := attention.NewOutput(in.Q.Tokens, in.Q.Heads, in.Q.Dim)
	next := (in.Rank.ID + 1) % n
	prev := (in.Rank.ID - 1 + n) % n
	for j := 0; j < n; j++ {
		// Issue the transfer of the current block for step j+1, then compute
		// on it while the exchange is in flight — the communication/compute
		// overlap the paper relies on. The block we just sent stays valid to
		// read: circulating payloads are read-only by contract. Issue time
		// and exposed wait time both charge to the comm phase, so the
		// breakdown is comparable across the overlapped and sync paths.
		var xfer inflight
		t0 := in.Trace.Clock()
		if j < n-1 {
			xfer = startSendRecv(in.Rank, next, prev, cur, kvBlockBytes(cur, in.Elem))
		}
		in.Trace.Comm(t0)
		t0 = in.Trace.Clock()
		if err := attention.GQAInto(partial, in.Q, cur.K, cur.V, attention.Mask{
			QPos: qPos, QSeq: qSeq, KVPos: cur.Pos, KVSeq: cur.Seq,
		}); err != nil {
			xfer.drain()
			return nil, err
		}
		attention.AccumulateInto(out, partial)
		in.Trace.Compute(t0)
		if j < n-1 {
			t0 = in.Trace.Clock()
			received, recvErr := xfer.wait()
			in.Trace.Comm(t0)
			if recvErr != nil {
				return nil, recvErr
			}
			blk, ok := received.(*wire.KVBlock)
			if !ok {
				return nil, fmt.Errorf("ring: rank %d received non-KV payload from %d", in.Rank.ID, (in.Rank.ID-1+n)%n)
			}
			cur = blk
		}
	}
	in.Trace.Finish(n)
	return out, nil
}

// PassQPrefill runs Algorithm 3 on one rank: the local KV block stays put
// while query blocks circulate; after N partial computations the scattered
// partial outputs are permuted back to their source ranks with an All2All
// and merged there. Returns the local output in plan order.
func PassQPrefill(in *PrefillInput) (*attention.Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	n := in.Rank.N()
	kv, err := in.localKV(nil) // stationary KV needs no cross-rank padding
	if err != nil {
		return nil, err
	}
	qPos, qSeq := in.qMask()
	cur := &wire.QBlock{Q: in.Q, Pos: qPos, Seq: qSeq}
	next := (in.Rank.ID + 1) % n
	prev := (in.Rank.ID - 1 + n) % n
	var tail mergeScratch // tail.partials[s] = O_s^k for source s
	tail.fit(n, in.Q.Tokens, in.Q.Heads, in.Q.Dim)
	src := in.Rank.ID
	for j := 0; j < n; j++ {
		// Same double-buffering as pass-KV: the query block for step j+1 is
		// in flight while this step's partial attention runs.
		var xfer inflight
		t0 := in.Trace.Clock()
		if j < n-1 {
			xfer = startSendRecv(in.Rank, next, prev, cur, qBlockBytes(cur, in.Elem))
		}
		in.Trace.Comm(t0)
		t0 = in.Trace.Clock()
		partial, err := attention.GQA(cur.Q, kv.K, kv.V, attention.Mask{
			QPos: cur.Pos, QSeq: cur.Seq, KVPos: kv.Pos, KVSeq: kv.Seq,
		})
		if err != nil {
			xfer.drain()
			return nil, err
		}
		tail.partials[src] = partial
		in.Trace.Compute(t0)
		if j < n-1 {
			t0 = in.Trace.Clock()
			received, recvErr := xfer.wait()
			in.Trace.Comm(t0)
			if recvErr != nil {
				return nil, recvErr
			}
			blk, ok := received.(*wire.QBlock)
			if !ok {
				return nil, fmt.Errorf("ring: rank %d received non-Q payload from %d", in.Rank.ID, (in.Rank.ID-1+n)%n)
			}
			cur = blk
			src = (src - 1 + n) % n
		}
	}
	out, err := all2allMerge(in.Rank, &tail, in.Elem, in.Trace)
	if err != nil {
		return nil, err
	}
	in.Trace.Finish(n)
	return out, nil
}

// all2allMerge sends m.partials[s] back to source rank s, receives this
// rank's partials from every peer, and merges them into m.merged (the permute
// + All2All + merge tail of Algorithms 3 and 4). m must be fitted to the
// partials' shape. tr (nil-safe) charges the exchange to the sweep's all2all
// phase.
func all2allMerge(rank *comm.Rank, m *mergeScratch, elem float64, tr *trace.SweepTimer) (*attention.Output, error) {
	for s := range m.oblocks {
		m.oblocks[s].Out = m.partials[s]
		m.sizes[s] = oBlockBytes(&m.oblocks[s], elem)
	}
	t0 := tr.Clock()
	err := rank.All2AllInto(m.got, m.msgs, m.sizes)
	tr.A2A(t0)
	if err != nil {
		return nil, err
	}
	for src, got := range m.got {
		blk, ok := got.(*wire.OBlock)
		if !ok {
			return nil, fmt.Errorf("ring: rank %d received non-output payload from %d in All2All", rank.ID, src)
		}
		m.mine[src] = blk.Out
	}
	attention.MergeInto(m.merged, m.mine...)
	return m.merged, nil
}

// AllGatherPrefill is the ablation baseline (§3.5.2): every rank gathers all
// KV up front, then computes local attention in one shot. Same result as the
// ring variants, but the gather sits on the critical path.
func AllGatherPrefill(in *PrefillInput) (*attention.Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	local, err := in.localKV(nil)
	if err != nil {
		return nil, err
	}
	gathered, err := in.Rank.AllGather(local, kvBlockBytes(local, in.Elem))
	if err != nil {
		return nil, err
	}
	ks := make([]*tensor.Tensor, 0, len(gathered))
	vs := make([]*tensor.Tensor, 0, len(gathered))
	var pos, seq []int
	for _, g := range gathered {
		blk, ok := g.(*wire.KVBlock)
		if !ok {
			return nil, fmt.Errorf("ring: rank %d gathered non-KV payload", in.Rank.ID)
		}
		if blk.K.Tokens == 0 {
			continue
		}
		ks = append(ks, blk.K)
		vs = append(vs, blk.V)
		pos = append(pos, blk.Pos...)
		seq = append(seq, blk.Seq...)
	}
	qPos, qSeq := in.qMask()
	k := tensor.Concat(ks...)
	v := tensor.Concat(vs...)
	if k.Tokens == 0 {
		k = tensor.New(0, in.K.Heads, in.K.Dim)
		v = tensor.New(0, in.K.Heads, in.K.Dim)
	}
	return attention.GQA(in.Q, k, v, attention.Mask{QPos: qPos, QSeq: qSeq, KVPos: pos, KVSeq: seq})
}

// AppendLocalKV persists a rank's new-token KV shard into its cache with
// global positions, skipping padding slots. Call after a prefill so later
// turns and decode see the tokens. seqIDs maps batch-plan indices to cache
// keys (nil = identity).
func AppendLocalKV(cache *kvcache.Cache, plan *sharding.BatchShard, rankID int, p, seqIDs []int, k, v *tensor.Tensor) error {
	lp := plan.LocalPositions(rankID)
	ls := plan.LocalSeqs(rankID)
	for i := range plan.SeqLens {
		rows := make([]int, 0)
		pos := make([]int, 0)
		for slot, s := range ls {
			if s == i && lp[slot] != sharding.Pad {
				rows = append(rows, slot)
				pos = append(pos, p[i]+lp[slot])
			}
		}
		if len(rows) == 0 {
			continue
		}
		key := i
		if seqIDs != nil {
			key = seqIDs[i]
		}
		if err := cache.Append(key, k.Gather(rows), v.Gather(rows), pos); err != nil {
			return err
		}
	}
	return nil
}
