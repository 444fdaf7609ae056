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

// The prefill arena's lifetime rule. A prefill command runs every layer's
// ring pass on one rank out of one PrefillScratch (and the layer's
// BlockCache), so nothing the sweep needs besides KV growth is allocated per
// call. On the in-process transport payloads circulate by pointer, so the
// buffers peers read are reused only where this holds:
//
//   - Pass-Q. The rule at the top of decode.go covers its tail and query
//     block: the Q rows and their position/sequence ids are free once this
//     rank's own All2All has returned, and partials[s] is next written (or
//     reshaped) when s's next block arrives, after s's merge has returned.
//   - Pass-KV. A KV block is forwarded N−1 hops, so a rank can start layer
//     l+1 while the last peer is still reading its layer-l block. The
//     circulating block therefore belongs to its layer: it lives in the
//     layer's BlockCache and is rewritten only by the next command's pass
//     over that layer, after the plane has joined every rank. (The next
//     layer's segment-length AllGather happens to hold a rank back until
//     every peer is done with the layer too; the rule does not lean on it.)
//     The queries, the partial and the running merge never leave the rank.
//     The segment lengths a pass sends first are read by each peer before
//     that peer sends its own KV block, and every peer's block reaches this
//     rank before the pass returns, so the next pass may rewrite them.
//   - TCP. A send encodes the frame on the rank's own goroutine before it
//     returns, the same as every other transport's send in the one exchange
//     path (overlap.go), so no peer ever reads this rank's buffers. A
//     received block is the rank's until its pass returns, and then the
//     transport decodes a later frame into it: the pass hands it back
//     (comm.Rank.Recycle) once it is attended, and forwarded if it
//     circulates. A ring step's block is handed back when the next one
//     replaces it, the last one when the ring loop (circulate, overlap.go)
//     returns, errors included. Nothing the pass returns points into a
//     received block: the merge and the partials live in the arena.
//
// The engine's Q/K/V rows are free for the next layer once the layer's pass
// and AppendShardKV have returned: pass-KV never sends them (shippedKV copies
// K/V into the layer's block), pass-Q reads its K/V only on its own rank, and
// pass-Q's Q is covered by the rule above. Stationary KV — the cache's pages
// that pass-Q and decode attend in place — never leaves the rank, and no run
// over it outlives its pass (forgetRuns), as kvcache's page recycling needs.
// The plan's slot lists circulate with pass-Q's query block, so an engine
// that keeps one plan across commands (sharding.BatchShard.Reset) rebuilds it
// only once its previous command has returned.

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
	// Blocks is the layer's send buffer, where pass-KV assembles the block
	// it ships (one BlockCache per rank per layer, owned by the rank
	// goroutine), and the counters of that copy. Nil assembles into a buffer
	// allocated per call.
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
	// Scratch is the rank's prefill arena (one per rank, shared by its
	// layers); see the lifetime rule at the top of this file. The returned
	// output then lives in it, valid until the next call that uses it. Nil
	// allocates per call and the result is the caller's to keep.
	Scratch *PrefillScratch
	// Attn is the rank's attention scratch, which its prefill and decode
	// passes share. Nil allocates one per call.
	Attn *attention.Scratch
	// Rows lists the local slots whose output the caller needs, in the order
	// it wants them; nil means every slot. The returned Output has one row
	// per entry. Every variant attends only the listed rows and returns them
	// in order, and no variant's messages change: a rank listing none still
	// sends and forwards every block, sized as the full run's. Pass-KV
	// attends the gathered rows where its queries stay put.
	// Pass-Q circulates its whole query block, with position -1 at every
	// unlisted slot, so every rank's kernel treats those slots as identity
	// rows (as it does padding) and their partials come back with LSE -Inf;
	// the stationary KV keeps the chunk's real positions.
	Rows []int
}

// PrefillScratch is one rank's prefill arena: the query-side mask, pass-KV's
// segment lengths, running merge and per-step partial, pass-Q's circulating
// query block and the positions it carries under Rows, per-source partials
// and merge tail, and its stationary KV's run list and mask, plus the queries
// and output rows Rows selects. The zero value is ready to use; the buffers grow to the
// largest chunk seen, and pass-Q's tail is cut anew only for a new world
// size.
type PrefillScratch struct {
	qPos           []int
	out, partial   attention.Output
	qblk           wire.QBlock
	blkPos         []int
	tail           mergeScratch
	runs           []attention.Run
	kvPos, kvSeq   []int
	q              tensor.Tensor
	selPos, selSeq []int
	picked         attention.Output
	// Pass-KV's segment-length agreement: this rank's lengths (and the one
	// boxed value of them it sends), every rank's as gathered, their maximum.
	segMine, segMax []int
	segMsg          any
	gathered        []any
}

func (in *PrefillInput) scratch() *PrefillScratch {
	if in.Scratch == nil {
		return new(PrefillScratch)
	}
	return in.Scratch
}

// attnScratch returns sc, or a fresh attention scratch when it is nil.
func attnScratch(sc *attention.Scratch) *attention.Scratch {
	if sc == nil {
		return new(attention.Scratch)
	}
	return sc
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
	for i, p := range in.P {
		if p < 0 {
			return fmt.Errorf("ring: sequence %d has negative cached length %d", i, p)
		}
	}
	for _, r := range in.Rows {
		if r < 0 || r >= want {
			return fmt.Errorf("ring: selected row %d outside the %d local slots", r, want)
		}
	}
	return nil
}

// qMask builds the query-side mask of a rank's local shard into s: global
// position P^i + p for the slot of sequence i at new-token position p, -1 for
// a padding slot. The sequence ids are the plan's own slice, which nothing
// mutates before the command ends.
func (in *PrefillInput) qMask(s *PrefillScratch) (pos, seq []int) {
	lp := in.Plan.LocalPositions(in.Rank.ID)
	ls := in.Plan.LocalSeqs(in.Rank.ID)
	s.qPos = tensor.Grown(s.qPos, len(lp))
	for i, p := range lp {
		if p == sharding.Pad {
			s.qPos[i] = -1
		} else {
			s.qPos[i] = in.P[ls[i]] + p
		}
	}
	return s.qPos, ls
}

// queries returns the query rows this rank attends and their mask: every
// row, or the Rows gathered into s.
func (in *PrefillInput) queries(s *PrefillScratch, pos, seq []int) (q *tensor.Tensor, qPos, qSeq []int) {
	if in.Rows == nil {
		return in.Q, pos, seq
	}
	q = s.q.Resize(len(in.Rows), in.Q.Heads, in.Q.Dim)
	s.selPos, s.selSeq = tensor.Grown(s.selPos, len(in.Rows)), tensor.Grown(s.selSeq, len(in.Rows))
	for i, r := range in.Rows {
		copy(q.Row2D(i), in.Q.Row2D(r))
		s.selPos[i], s.selSeq[i] = pos[r], seq[r]
	}
	return q, s.selPos, s.selSeq
}

// circulatingPos returns the positions pass-Q's query block carries: qPos
// itself, or under Rows a copy in s with -1 at every slot not listed, so no
// rank attends a query whose output nobody reads. The block keeps every row
// and its Pos length, so its message size does not move.
func (in *PrefillInput) circulatingPos(s *PrefillScratch, qPos []int) []int {
	if in.Rows == nil {
		return qPos
	}
	s.blkPos = tensor.Grown(s.blkPos, len(qPos))
	for i := range s.blkPos {
		s.blkPos[i] = -1
	}
	for _, r := range in.Rows {
		s.blkPos[r] = qPos[r]
	}
	return s.blkPos
}

// pick returns the Rows of out gathered into s, or out itself when Rows is
// nil.
func (in *PrefillInput) pick(s *PrefillScratch, out *attention.Output) *attention.Output {
	if in.Rows == nil {
		return out
	}
	heads := out.O.Heads
	sel := s.picked.Fit(len(in.Rows), heads, out.O.Dim)
	for i, r := range in.Rows {
		copy(sel.O.Row2D(i), out.O.Row2D(r))
		copy(sel.LSE[i*heads:(i+1)*heads], out.LSE[r*heads:(r+1)*heads])
	}
	return sel
}

// The circulating payloads — KV tiles for pass-KV, query blocks for pass-Q
// and decode, partial outputs for the All2All — are the exported wire types
// (comm/wire), so the same structs flow through in-process mailboxes by
// pointer and across TCP through the deterministic codec. Their accounted
// sizes stay the paper's analytic element counts:

// block is what circulates around the ring: KV for pass-KV, queries for
// pass-Q and decode.
type block interface{ *wire.KVBlock | *wire.QBlock }

func blockBytes[B block](b B, elem float64) float64 {
	if kv, ok := any(b).(*wire.KVBlock); ok {
		return kv.K.Bytes(elem) + kv.V.Bytes(elem) + float64(len(kv.Pos))*metaBytesPerToken
	}
	q := any(b).(*wire.QBlock)
	return q.Q.Bytes(elem) + float64(len(q.Pos))*metaBytesPerToken
}

func oBlockBytes(b *wire.OBlock, elem float64) float64 {
	// Output payload plus one LSE scalar per (token, head), as in the
	// paper's All2All cost (N-1)(D+1)Te (Appendix C).
	return b.Out.O.Bytes(elem) + float64(len(b.Out.LSE))*elem
}

// stationaryKV is pass-Q's KV, attended in place: per sequence, the cache's
// pages followed by this chunk's new rows (padding slots included, masked by
// position -1), in the order the shipped block would hold them. Only the
// mask's position and sequence-id lists are built, into s: O(rows) integers
// and no KV row copied.
func (in *PrefillInput) stationaryKV(s *PrefillScratch, qPos []int) (attention.KV, []int, []int, error) {
	rowLen := in.K.Heads * in.K.Dim
	s.runs, s.kvPos, s.kvSeq = s.runs[:0], s.kvPos[:0], s.kvSeq[:0]
	err := forSeqSlots(in.Plan, in.Rank.ID, func(i, lo, hi int) error {
		cached, err := in.cachedRows(i)
		if err != nil {
			return err
		}
		if cached > 0 {
			s.runs = in.Cache.Runs(s.runs, in.seqKey(i))
			s.kvPos = in.Cache.Positions(s.kvPos, in.seqKey(i))
		}
		s.runs = append(s.runs, attention.Run{K: in.K.Data[lo*rowLen : hi*rowLen], V: in.V.Data[lo*rowLen : hi*rowLen], Rows: hi - lo})
		s.kvPos = append(s.kvPos, qPos[lo:hi]...)
		for len(s.kvSeq) < len(s.kvPos) {
			s.kvSeq = append(s.kvSeq, i)
		}
		if in.Blocks != nil {
			in.Blocks.stats.Reuses++
		}
		return nil
	})
	if err != nil {
		return attention.KV{}, nil, nil, err
	}
	return attention.KV{Heads: in.K.Heads, Dim: in.K.Dim, Runs: s.runs}, s.kvPos, s.kvSeq, nil
}

// forSeqSlots calls f for every sequence i of plan, in order, with the run
// [lo, hi) of rank's local slots that hold it (empty when it has none
// there): a plan lists each sequence's slots as one run, in sequence order.
// It stops at f's first error.
func forSeqSlots(plan *sharding.BatchShard, rank int, f func(i, lo, hi int) error) error {
	ls := plan.LocalSeqs(rank)
	lo := 0
	for i := range plan.SeqLens {
		hi := lo
		for hi < len(ls) && ls[hi] == i {
			hi++
		}
		if err := f(i, lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// forgetRuns clears every entry of an arena's run list, up to its capacity,
// and returns it emptied: an idle arena must not keep a dropped sequence's
// pages, or a peer's replaced buffer, reachable.
func forgetRuns(runs []attention.Run) []attention.Run {
	clear(runs[:cap(runs)])
	return runs[:0]
}

// blockKV is the one-run operand over a shipped KV block, its run list kept
// in s.
func (s *PrefillScratch) blockKV(b *wire.KVBlock) attention.KV {
	s.runs = append(s.runs[:0], attention.Run{K: b.K.Data, V: b.V.Data, Rows: b.K.Tokens})
	return attention.KV{Heads: b.K.Heads, Dim: b.K.Dim, Runs: s.runs}
}

// agreeSegmentLengths computes L_i = max_j(P_j^i + T_j^i) for every sequence
// by exchanging per-rank segment lengths (a tiny metadata AllGather, 8 bytes
// per sequence), into s.
func agreeSegmentLengths(in *PrefillInput, s *PrefillScratch) ([]int, error) {
	if len(s.segMine) != len(in.Plan.SeqLens) {
		s.segMine = make([]int, len(in.Plan.SeqLens))
		s.segMsg = s.segMine // boxed once, and rewritten in place (the rule above)
	}
	mine := s.segMine
	lp := in.Plan.LocalPositions(in.Rank.ID)
	_ = forSeqSlots(in.Plan, in.Rank.ID, func(i, lo, hi int) error { // counting cannot fail
		n := 0
		if in.Cache != nil {
			n = in.Cache.SeqLen(in.seqKey(i))
		}
		for _, p := range lp[lo:hi] {
			if p != sharding.Pad {
				n++
			}
		}
		mine[i] = n
		return nil
	})
	s.gathered = tensor.Grown(s.gathered, in.Rank.N())
	defer clear(s.gathered) // keep no peer's list reachable
	if err := in.Rank.AllGatherInto(s.gathered, s.segMsg, float64(len(mine))*metaBytesPerToken); err != nil {
		return nil, err
	}
	s.segMax = tensor.Grown(s.segMax, len(mine))
	clear(s.segMax)
	for _, a := range s.gathered {
		lens, ok := a.([]int)
		if !ok || len(lens) != len(mine) {
			return nil, fmt.Errorf("ring: malformed segment-length gather")
		}
		for i, l := range lens {
			s.segMax[i] = max(s.segMax[i], l)
		}
	}
	return s.segMax, nil
}

// PassKVPrefill runs Algorithm 2 on one rank: the rank's KV block circulates
// around the ring while the local queries attend to every arriving block;
// partials merge locally. Returns the local attention output in plan order
// (padding slots are zero rows), or the Rows alone, which are then the only
// queries attended.
func PassKVPrefill(in *PrefillInput) (*attention.Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	s := in.scratch()
	defer func() { s.runs = forgetRuns(s.runs) }()
	segLens, err := agreeSegmentLengths(in, s)
	if err != nil {
		return nil, err
	}
	qPos, qSeq := in.qMask(s)
	blk, err := in.shippedKV(qPos, segLens)
	if err != nil {
		return nil, err
	}
	q, qPos, qSeq := in.queries(s, qPos, qSeq)
	out := s.out.Fit(q.Tokens, q.Heads, q.Dim)
	// One partial buffer recycled across all n ring steps; GQAKVInto resets it.
	partial := s.partial.Fit(q.Tokens, q.Heads, q.Dim)
	attn := attnScratch(in.Attn)
	err = circulate(in.Rank, in.Trace, blk, in.Elem, func(cur *wire.KVBlock, _ int) error {
		err := attention.GQAKVInto(partial, q, s.blockKV(cur), attention.Mask{
			QPos: qPos, QSeq: qSeq, KVPos: cur.Pos, KVSeq: cur.Seq,
		}, attn)
		if err == nil {
			attention.AccumulateInto(out, partial)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	in.Trace.Finish(in.Rank.N())
	return out, nil
}

// PassQPrefill runs Algorithm 3 on one rank: the local KV block stays put
// while query blocks circulate; after N partial computations the scattered
// partial outputs are permuted back to their source ranks with an All2All
// and merged there. Returns the local output in plan order, or its Rows,
// which are then the only queries any rank attends for this block.
func PassQPrefill(in *PrefillInput) (*attention.Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	n := in.Rank.N()
	s := in.scratch()
	defer func() { s.runs = forgetRuns(s.runs) }()
	qPos, qSeq := in.qMask(s)
	kv, kvPos, kvSeq, err := in.stationaryKV(s, qPos) // stationary KV needs no cross-rank padding
	if err != nil {
		return nil, err
	}
	s.qblk = wire.QBlock{Q: in.Q, Pos: in.circulatingPos(s, qPos), Seq: qSeq}
	tail := &s.tail // tail.partials[s] = O_s^k for source s
	tail.fit(n, in.Q.Tokens, in.Q.Heads, in.Q.Dim)
	attn := attnScratch(in.Attn)
	err = circulate(in.Rank, in.Trace, &s.qblk, in.Elem, func(cur *wire.QBlock, src int) error {
		return attention.GQAKVInto(tail.partial(src), cur.Q, kv, attention.Mask{
			QPos: cur.Pos, QSeq: cur.Seq, KVPos: kvPos, KVSeq: kvSeq,
		}, attn)
	})
	if err != nil {
		return nil, err
	}
	out, err := all2allMerge(in.Rank, tail, in.Elem, in.Trace)
	if err != nil {
		return nil, err
	}
	in.Trace.Finish(n)
	return in.pick(s, out), nil
}

// all2allMerge sends m.partials[s] back to source rank s, receives this
// rank's partials from every peer, and merges them into m.merged (the permute
// + All2All + merge tail of Algorithms 3 and 4). m must be fitted to the
// partials' shape. tr (nil-safe) charges the exchange to the sweep's all2all
// phase.
//
// The merge folds the partials one at a time in pass-KV's order: the home
// rank's own first, then rank id−1's, id−2's and so on, the order in which
// pass-KV's ring brings it their KV blocks. Each fold rounds to float32, so
// that order, not the partials alone, fixes the bits: folding it the same
// way keeps pass-Q bit-identical to pass-KV at every world size.
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
	m.merged.Reset()
	n := len(m.mine)
	for j := 0; j < n; j++ {
		attention.AccumulateInto(&m.merged, m.mine[(rank.ID-j+n)%n])
	}
	for _, got := range m.got {
		rank.Recycle(got) // merged; this rank's own partial is ignored
	}
	return &m.merged, nil
}

// AppendLocalKV persists a rank's new-token KV shard into its cache with
// global positions, skipping padding slots. Call after a prefill so later
// turns and decode see the tokens. seqIDs maps batch-plan indices to cache
// keys (nil = identity). Each sequence's slots are one run of rows in plan
// order, which the cache copies straight out of k and v.
func AppendLocalKV(cache *kvcache.Cache, plan *sharding.BatchShard, rankID int, p, seqIDs []int, k, v *tensor.Tensor) error {
	lp := plan.LocalPositions(rankID)
	ls := plan.LocalSeqs(rankID)
	pos := make([]int, len(lp)) // global positions; -1, which Append skips, for padding
	for slot, q := range lp {
		pos[slot] = -1
		if q != sharding.Pad {
			pos[slot] = p[ls[slot]] + q
		}
	}
	return AppendShardKV(cache, plan, rankID, pos, seqIDs, k, v)
}

// AppendShardKV is AppendLocalKV given each local slot's global position
// (-1, which the cache skips, for padding) rather than the per-sequence
// cached lengths: a caller that already built the query mask's positions
// appends without building them again.
func AppendShardKV(cache *kvcache.Cache, plan *sharding.BatchShard, rankID int, pos, seqIDs []int, k, v *tensor.Tensor) error {
	rowLen := k.Heads * k.Dim
	return forSeqSlots(plan, rankID, func(i, lo, hi int) error {
		key := i
		if seqIDs != nil {
			key = seqIDs[i]
		}
		kRows := tensor.Tensor{Tokens: hi - lo, Heads: k.Heads, Dim: k.Dim, Data: k.Data[lo*rowLen : hi*rowLen]}
		vRows := tensor.Tensor{Tokens: hi - lo, Heads: v.Heads, Dim: v.Dim, Data: v.Data[lo*rowLen : hi*rowLen]}
		return cache.Append(key, &kRows, &vRows, pos[lo:hi]) // an empty run appends nothing
	})
}
