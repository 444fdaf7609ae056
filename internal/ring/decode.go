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
// The arenas' lifetime rule, for DecodeScratch and PrefillScratch's pass-Q
// tail alike. On the in-process transport payloads circulate by pointer, so
// two kinds of arena buffer are read by peers, and each is rewritten — or
// reshaped, which is a write too — only where no peer can still read it:
//
//   - partials[s], this rank's partial for source rank s, is read by s's
//     merge. This rank next writes it only after s's next block (the next
//     layer's, or the next call's) arrives here, and s sends that block only
//     after its merge has returned. So a partial is reshaped when its source's
//     block arrives (mergeScratch.partial), never when a call begins.
//   - A rank's own partial never leaves it.
//   - A rank's query block is read by every peer that computes on it, and a
//     peer's last read precedes the All2All send of the partial it computed
//     from it. The block is therefore free once the rank's own All2All has
//     returned, before the call returns, and the next call may reshape and
//     refill it.
//   - Over TCP, every send encodes before it returns, so no peer reads the
//     arena; the blocks a sweep receives are handed back to the transport
//     under ring.go's rule.
//   - After a failed pass no arena is reused: recovery stands up a new
//     incarnation with fresh engines (transformer's newMemPlane).
//
// None of this depends on the shape, so the arenas grow to the largest block
// seen and reshape in place when the block length moves (sessions joining or
// leaving a batch, a pass-Q chunk of another length); only a change of world
// size cuts new buffers. Nothing else in an arena is shared: the merged
// output and the returned view of it belong to the caller until its next
// call with the same arena.

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
	// Attn is the rank's attention scratch, as PrefillInput.Attn.
	Attn *attention.Scratch
	Elem float64
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

// mergeScratch holds the buffers of the pass-Q tail (All2All, then merge)
// for n ranks: the envelopes and size list of the exchange, the per-source
// partials, the received partials, and the merged output.
type mergeScratch struct {
	partials []*attention.Output // partials[s]: this rank's partial for source rank s
	oblocks  []wire.OBlock       // oblocks[s] wraps partials[s] for the All2All
	msgs     []any               // msgs[s] = &oblocks[s]
	sizes    []float64
	got      []any
	mine     []*attention.Output // this rank's partials as received, by source
	merged   attention.Output
}

// fit sizes the tail for n ranks and [tokens, heads, dim] partials. Only a
// new world size cuts new buffers. A new shape reshapes the merged output in
// place, and each partial when partial hands it out, once its source's block
// has arrived (the lifetime rule at the top of this file).
func (m *mergeScratch) fit(n, tokens, heads, dim int) {
	if len(m.msgs) != n {
		*m = mergeScratch{
			partials: make([]*attention.Output, n),
			oblocks:  make([]wire.OBlock, n),
			msgs:     make([]any, n),
			sizes:    make([]float64, n),
			got:      make([]any, n),
			mine:     make([]*attention.Output, n),
		}
		for s := range m.msgs {
			m.msgs[s] = &m.oblocks[s]
			m.partials[s] = new(attention.Output)
		}
	}
	if !shaped(m.merged.O, tokens, heads, dim) {
		m.merged.Fit(tokens, heads, dim)
	}
}

// partial returns partials[src] in the merged output's shape, reshaped in
// place if it has another. Call it only once src's block of this pass has
// arrived: until then src may still be merging the partial it got last.
func (m *mergeScratch) partial(src int) *attention.Output {
	p, o := m.partials[src], m.merged.O
	if !shaped(p.O, o.Tokens, o.Heads, o.Dim) {
		p.Fit(o.Tokens, o.Heads, o.Dim)
	}
	return p
}

// shaped reports whether t exists and is [tokens, heads, dim].
func shaped(t *tensor.Tensor, tokens, heads, dim int) bool {
	return t != nil && t.Tokens == tokens && t.Heads == heads && t.Dim == dim
}

// DecodeScratch is one rank's decode arena: everything PassQDecode would
// otherwise allocate per call. The zero value is ready to use; the buffers
// grow to the largest block seen and are cut anew only when the world size
// changes. See the lifetime rule at the top of this file.
type DecodeScratch struct {
	blk        wire.QBlock // this rank's circulating query block; its Q is blkQ
	blkQ       tensor.Tensor
	tail       mergeScratch
	out        attention.Output // the merged output's leading owned rows: the result
	outO       tensor.Tensor
	kRow, vRow tensor.Tensor // one-row views handed to Cache.Append
	rowPos     [1]int
	runs       []attention.Run // a visiting row's sequence, as the cache's pages
	// The masked fallback's row: its query and output views, and its KV mask.
	qRow, rowO   tensor.Tensor
	row          attention.Output
	kvPos, kvSeq []int
}

func (s *DecodeScratch) fit(n, bl, heads, dim int) {
	s.tail.fit(n, bl, heads, dim)
	s.blk = wire.QBlock{Q: s.blkQ.Resize(bl, heads, dim), Pos: tensor.Grown(s.blk.Pos, bl), Seq: tensor.Grown(s.blk.Seq, bl)}
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
	blk := &s.blk
	clear(blk.Q.Data[copy(blk.Q.Data, in.Q.Data):])
	for i := range blk.Seq {
		blk.Seq[i], blk.Pos[i] = -1, -1
	}
	for i, tok := range in.Owned {
		blk.Seq[i], blk.Pos[i] = tok.Seq, tok.Pos
	}
	attn := attnScratch(in.Attn)
	err := circulate(in.Rank, in.Trace, blk, in.Elem, func(cur *wire.QBlock, src int) error {
		return decodeBlockAttention(in.Cache, s, attn, cur, s.tail.partial(src))
	})
	if err != nil {
		return nil, err
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
// the general masked kernel, out of the same arena.
func decodeBlockAttention(cache *kvcache.Cache, s *DecodeScratch, attn *attention.Scratch, blk *wire.QBlock, out *attention.Output) error {
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
			if err := attention.DecodeKVInto(out, blk.Q, kv, r, attn); err != nil {
				return err
			}
			continue
		}
		s.kvPos = cache.Positions(s.kvPos[:0], seq)
		if err := s.maskedRow(out, blk, r, kv, attn); err != nil {
			return err
		}
	}
	return nil
}

// maskedRow is decodeBlockAttention's general path for one row: the full
// position/sequence mask over the row's KV (positions in s.kvPos), through
// GQAKVInto into row r of out, viewed in place.
func (s *DecodeScratch) maskedRow(out *attention.Output, blk *wire.QBlock, r int, kv attention.KV, attn *attention.Scratch) error {
	s.kvSeq = tensor.Grown(s.kvSeq, len(s.kvPos))
	for i := range s.kvSeq {
		s.kvSeq[i] = blk.Seq[r]
	}
	heads, dim := blk.Q.Heads, blk.Q.Dim
	s.qRow = tensor.Tensor{Tokens: 1, Heads: heads, Dim: dim, Data: blk.Q.Row2D(r)}
	s.rowO = tensor.Tensor{Tokens: 1, Heads: heads, Dim: dim, Data: out.O.Row2D(r)}
	s.row = attention.Output{O: &s.rowO, LSE: out.LSE[r*heads : (r+1)*heads]}
	err := attention.GQAKVInto(&s.row, &s.qRow, kv, attention.Mask{
		QPos: blk.Pos[r : r+1], QSeq: blk.Seq[r : r+1], KVPos: s.kvPos, KVSeq: s.kvSeq,
	}, attn)
	// An idle arena keeps no peer's block reachable (as forgetRuns).
	s.qRow, s.rowO, s.row = tensor.Tensor{}, tensor.Tensor{}, attention.Output{}
	return err
}
