package ring

import (
	"fmt"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// This file is the decode sweep (Algorithm 4) and its arena. A decode step
// costs a fraction of a millisecond of arithmetic per rank, so what it
// allocates and whom it wakes is most of what it costs: the sweep therefore
// runs out of a caller-owned DecodeScratch, reused every layer of every step,
// and attends through attention.DecodeKVInto, which needs no mask compile and
// reads the cache's pages in place: decode copies no KV.
//
// The arena's lifetime rule. On the in-process transport payloads circulate
// by pointer, so two of the scratch's buffers are read by peers:
//
//   - the rank's query block is read by every peer that computes on it, and a
//     peer's last read precedes the All2All send of the partial it computed
//     from it. The block is therefore free once the rank's own All2All has
//     returned — before PassQDecode returns — and the next call may refill it.
//   - partials[s], this rank's partial for source rank s, is read by s's
//     Merge. This rank next writes it when s's next block (the next layer's,
//     or the next step's) arrives here, and s sends that block only after its
//     Merge has returned. The rank's own partial never leaves it.
//
// Both hold for any world size, because a block reaches a rank only through
// sends that follow its source's send. Nothing else in the scratch is shared:
// the merged output and the returned view of it belong to the caller until
// its next PassQDecode with the same scratch. A change of shape (the block
// length moves when sessions join or leave a batch) reallocates instead of
// resizing, so a buffer a slow peer still reads is never cut under it. Over
// TCP every send encodes before it returns, so no peer reads the scratch,
// and the blocks the sweep receives are handed back to the transport under
// ring.go's rule.

// DecodeToken is one sequence's decode token assigned to a rank for the
// current step.
type DecodeToken struct {
	Seq int // batch sequence id
	Pos int // global position of the new token (== context length so far)
}

// DecodeInput is one rank's view of a batched decode step (Algorithm 4).
type DecodeInput struct {
	Rank    *comm.Rank
	NumSeqs int           // batch size B
	Owned   []DecodeToken // tokens assigned to this rank this step
	// BlockLen is the circulating query-block size every rank agreed on. It
	// must be >= len(Owned) on every rank. Zero means the default padding of
	// ceil(NumSeqs/N), which is only valid when the owner assignment spreads
	// the batch evenly; engines whose owner rotation can collide (e.g.
	// per-sequence round-robin) pass the true max over ranks.
	BlockLen int
	// Q, K, V rows align with Owned: Q is [len(Owned), NH, DH], K and V are
	// [len(Owned), NKV, DH] — the projections of each owned decode token.
	// All three are copied out before any peer is involved, so the caller
	// may reuse them as soon as PassQDecode returns.
	Q, K, V *tensor.Tensor
	Cache   *kvcache.Cache // this rank's shard of every sequence's KV, attended in place
	// Deprecated: decode reads the cache's pages in place and copies no KV,
	// so Blocks is ignored. It is kept for benchmark/ until harness v2
	// (ROADMAP item 1) stops setting it.
	Blocks *BlockCache
	// Scratch is the rank's decode arena (one per rank, shared by its
	// layers); see the lifetime rule at the top of this file. The returned
	// output then lives in it, valid until the next call that uses it. Nil
	// allocates per call and the result is the caller's to keep.
	Scratch *DecodeScratch
	Elem    float64
	// Trace, when non-nil, accumulates the sweep's per-phase wall time;
	// nil costs nothing and cannot perturb the compute path.
	Trace *trace.SweepTimer
}

func (in *DecodeInput) validate() error {
	if in.Rank == nil || in.Cache == nil {
		return fmt.Errorf("ring: decode needs rank and cache")
	}
	if in.NumSeqs <= 0 {
		return fmt.Errorf("ring: decode batch size %d", in.NumSeqs)
	}
	if in.Q.Tokens != len(in.Owned) || in.K.Tokens != len(in.Owned) || in.V.Tokens != len(in.Owned) {
		return fmt.Errorf("ring: decode rows %d/%d/%d, want %d owned",
			in.Q.Tokens, in.K.Tokens, in.V.Tokens, len(in.Owned))
	}
	if in.Elem <= 0 {
		return fmt.Errorf("ring: non-positive element size %v", in.Elem)
	}
	if in.BlockLen < 0 {
		return fmt.Errorf("ring: negative block length %d", in.BlockLen)
	}
	if bl := in.blockLen(); bl < len(in.Owned) {
		// Reject before any KV is appended or any peer enters the ring: a
		// failure past that point stalls peers until the receive timeout
		// and leaves the cache double-append-prone on retry. That holds for
		// the derived default as much as for an explicit BlockLen.
		return fmt.Errorf("ring: rank %d owns %d tokens > block %d",
			in.Rank.ID, len(in.Owned), bl)
	}
	for _, tok := range in.Owned {
		if tok.Seq < 0 {
			return fmt.Errorf("ring: negative sequence id %d", tok.Seq)
		}
	}
	return nil
}

// blockLen returns the circulating block size: BlockLen, or when that is zero
// the paper's padding of the number of queries to a multiple of the number of
// ranks, which for B=1 means every rank processes one (possibly padding)
// query (§4.3).
func (in *DecodeInput) blockLen() int {
	if in.BlockLen > 0 {
		return in.BlockLen
	}
	n := in.Rank.N()
	return (in.NumSeqs + n - 1) / n
}

// mergeScratch holds the buffers of the pass-Q tail (All2All, then Merge)
// for n ranks and partials of one shape: the envelopes and size list of the
// exchange, the received partials, and the merged output.
type mergeScratch struct {
	partials []*attention.Output // partials[s]: this rank's partial for source rank s
	oblocks  []wire.OBlock       // oblocks[s] wraps partials[s] for the All2All
	msgs     []any               // msgs[s] = &oblocks[s]
	sizes    []float64
	got      []any
	mine     []*attention.Output // this rank's partials as received, by source
	merged   *attention.Output
}

// fit (re)allocates the buffers, the partials included, for n ranks and
// [tokens, heads, dim] partials and reports whether it did; a call with the
// shape they already have changes nothing. A new shape gets new buffers
// rather than resized ones: a peer may still be merging the partial this
// rank sent it last, and must not see it cut underneath it.
func (m *mergeScratch) fit(n, tokens, heads, dim int) bool {
	if len(m.msgs) == n && m.merged.O.Tokens == tokens && m.merged.O.Heads == heads && m.merged.O.Dim == dim {
		return false
	}
	*m = mergeScratch{
		partials: make([]*attention.Output, n),
		oblocks:  make([]wire.OBlock, n),
		msgs:     make([]any, n),
		sizes:    make([]float64, n),
		got:      make([]any, n),
		mine:     make([]*attention.Output, n),
		merged:   attention.NewOutput(tokens, heads, dim),
	}
	for s := range m.msgs {
		m.msgs[s] = &m.oblocks[s]
		m.partials[s] = attention.NewOutput(tokens, heads, dim)
	}
	return true
}

// DecodeScratch is one rank's decode arena: everything PassQDecode would
// otherwise allocate per call. The zero value is ready to use; the buffers
// are cut on first use and again whenever the world size, block length or
// head shape changes. See the lifetime rule at the top of this file.
type DecodeScratch struct {
	blk        wire.QBlock // this rank's circulating query block
	tail       mergeScratch
	out        attention.Output // the merged output's leading owned rows: the result
	outO       tensor.Tensor
	kRow, vRow tensor.Tensor // one-row views handed to Cache.Append
	rowPos     [1]int
	runs       []attention.Run // a visiting row's sequence, as the cache's pages
}

func (s *DecodeScratch) fit(n, bl, heads, dim int) {
	if s.tail.fit(n, bl, heads, dim) {
		s.blk = wire.QBlock{Q: tensor.New(bl, heads, dim), Pos: make([]int, bl), Seq: make([]int, bl)}
	}
}

// PassQDecode runs Algorithm 4 on one rank: the rank first appends its owned
// decode tokens' K/V to its cache shard, then circulates the padded query
// block (with batch ids) around the ring, computing each visiting query
// against the local KV shard of that query's sequence. Partial outputs are
// restored to owner ranks via All2All and merged. The returned output rows
// align with in.Owned.
func PassQDecode(in *DecodeInput) (*attention.Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	n := in.Rank.N()
	s := in.Scratch
	if s == nil {
		s = new(DecodeScratch)
	}
	s.fit(n, in.blockLen(), in.Q.Heads, in.Q.Dim)
	// Persist the new tokens' KV on the owner rank before attention so each
	// query can attend to itself through the normal cache path.
	s.kRow = tensor.Tensor{Tokens: 1, Heads: in.K.Heads, Dim: in.K.Dim}
	s.vRow = tensor.Tensor{Tokens: 1, Heads: in.V.Heads, Dim: in.V.Dim}
	for i, tok := range in.Owned {
		s.kRow.Data, s.vRow.Data, s.rowPos[0] = in.K.Row2D(i), in.V.Row2D(i), tok.Pos
		if err := in.Cache.Append(tok.Seq, &s.kRow, &s.vRow, s.rowPos[:]); err != nil {
			return nil, err
		}
	}
	// Owned tokens sit at the front of the block; the rest is padding.
	cur := &s.blk
	defer func() { in.Rank.Recycle(cur) }() // as in pass-KV (ring.go)
	clear(cur.Q.Data[copy(cur.Q.Data, in.Q.Data):])
	for i := range cur.Seq {
		cur.Seq[i], cur.Pos[i] = -1, -1
	}
	for i, tok := range in.Owned {
		cur.Seq[i], cur.Pos[i] = tok.Seq, tok.Pos
	}
	next := (in.Rank.ID + 1) % n
	prev := (in.Rank.ID - 1 + n) % n
	src := in.Rank.ID
	for j := 0; j < n; j++ {
		// Decode sweeps double-buffer too: the next visiting query block is
		// in flight while this block attends to the local KV shard.
		var xfer inflight
		t0 := in.Trace.Clock()
		if j < n-1 {
			xfer = startSendRecv(in.Rank, next, prev, cur, qBlockBytes(cur, in.Elem))
		}
		in.Trace.Comm(t0)
		t0 = in.Trace.Clock()
		if err := decodeBlockAttention(in.Cache, s, cur, s.tail.partials[src]); err != nil {
			xfer.drain()
			return nil, err
		}
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
				return nil, fmt.Errorf("ring: rank %d received non-Q payload from %d in decode", in.Rank.ID, (in.Rank.ID-1+n)%n)
			}
			in.Rank.Recycle(cur)
			cur = blk
			src = (src - 1 + n) % n
		}
	}
	merged, err := all2allMerge(in.Rank, &s.tail, in.Elem, in.Trace)
	if err != nil {
		return nil, err
	}
	in.Trace.Finish(n)
	// Drop padding rows: the result is the merged output's leading rows.
	owned := len(in.Owned)
	s.outO = tensor.Tensor{Tokens: owned, Heads: merged.O.Heads, Dim: merged.O.Dim,
		Data: merged.O.Data[:owned*merged.O.Heads*merged.O.Dim]}
	s.out = attention.Output{O: &s.outO, LSE: merged.LSE[:owned*merged.O.Heads]}
	return &s.out, nil
}

// decodeBlockAttention computes the visiting query block against this rank's
// KV shard into out, the partial for the block's source rank: row r attends
// to the local cache of sequence seq[r] under the causal position bound
// pos[r]. Padding rows and rows whose sequence has no KV here stay identity.
// Each sequence's KV is read in place, as the cache's pages (s.runs holds
// their list). A decode query sits at or past every cached row of its
// sequence, which the cache's running maximum position confirms in O(1); the
// row then goes to the kernel with every row admitted and is written in
// place. A cache holding a later position (only hand-built inputs do) takes
// the general masked kernel.
func decodeBlockAttention(cache *kvcache.Cache, s *DecodeScratch, blk *wire.QBlock, out *attention.Output) error {
	if blk.Q.Tokens != out.O.Tokens || len(blk.Pos) != blk.Q.Tokens || len(blk.Seq) != blk.Q.Tokens {
		return fmt.Errorf("ring: visiting query block has %d rows (%d/%d ids), this sweep's block %d",
			blk.Q.Tokens, len(blk.Pos), len(blk.Seq), out.O.Tokens)
	}
	out.Reset()
	defer func() { s.runs = forgetRuns(s.runs) }()
	for r := 0; r < blk.Q.Tokens; r++ {
		seq := blk.Seq[r]
		if seq < 0 || cache.SeqLen(seq) == 0 {
			continue
		}
		s.runs = cache.Runs(s.runs[:0], seq)
		kv := attention.KV{Heads: cache.KVHeads(), Dim: cache.HeadDim(), Runs: s.runs}
		if cache.MaxPos(seq) <= blk.Pos[r] {
			if err := attention.DecodeKVInto(out, blk.Q, kv, r); err != nil {
				return err
			}
			continue
		}
		if err := maskedRow(out, blk, r, kv, cache.Positions(nil, seq)); err != nil {
			return err
		}
	}
	return nil
}

// maskedRow is decodeBlockAttention's general path for one row: the full
// position/sequence mask over the row's KV, through GQAKVInto and a one-row
// copy.
func maskedRow(out *attention.Output, blk *wire.QBlock, r int, kv attention.KV, kpos []int) error {
	kseq := make([]int, len(kpos))
	for i := range kseq {
		kseq[i] = blk.Seq[r]
	}
	qRowLen := blk.Q.Heads * blk.Q.Dim
	qRow, err := tensor.FromData(1, blk.Q.Heads, blk.Q.Dim, blk.Q.Data[r*qRowLen:(r+1)*qRowLen])
	if err != nil {
		return err
	}
	rowOut := attention.NewOutput(1, blk.Q.Heads, blk.Q.Dim)
	if err := attention.GQAKVInto(rowOut, qRow, kv, attention.Mask{
		QPos: blk.Pos[r : r+1], QSeq: blk.Seq[r : r+1], KVPos: kpos, KVSeq: kseq,
	}); err != nil {
		return err
	}
	copy(out.O.Row2D(r), rowOut.O.Row2D(0))
	copy(out.LSE[r*out.O.Heads:(r+1)*out.O.Heads], rowOut.LSE)
	return nil
}
