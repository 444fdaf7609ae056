package transformer

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// rankEngine holds one CP rank's execution state: per-layer KV caches (the
// rank's only copy of its KV) and the send buffers pass-KV ships from,
// replicated weights, and the registry of detached prefix spans. Its only entry point is handle (worker.go): one command in,
// one reply out. A memPlane hosts N engines in the coordinator's process and
// serveRank hosts one in a cprank worker, but a rank cannot tell where it or
// its peers live — which is what makes the deployments bit-identical.
type rankEngine struct {
	w        *Weights
	caches   []*kvcache.Cache           // per layer
	blocks   []*ring.BlockCache         // per layer: the shipped KV block's buffer
	prefixes map[uint64][]*kvcache.Span // detached prefixes, spans per layer

	// rec stages this rank's spans and metric series; epoch stamps them with
	// the cluster incarnation so merged traces survive recovery rebuilds. A
	// nil recorder is tracing off: every sweep timer degrades to a nil no-op
	// and the compute path takes zero clock readings. staged marks rec as
	// this engine's own staging buffer (serveRank sets it): only then does a
	// TraceCmd drain it. An in-process engine records straight into the
	// cluster's store, and draining that into itself would lose the lot.
	rec    *trace.Recorder
	epoch  uint64
	staged bool

	// One reply frame per hot command, reused: the command stream is
	// lockstep, so a reply is read or encoded before the next command lands.
	// The prefill and decode arenas are reused under the same rule.
	prefillRes wire.PrefillResult
	decodeRes  wire.DecodeResult
	pre        prefillScratch
	dec        decodeScratch
}

// prefillScratch is the rank engine's prefill arena: everything a prefill
// command needs besides KV growth (the cache's pages), grown to the largest
// chunk seen and reused by every command.
// The logits it returns live here too, and so do the token ids sampled from
// them, valid until the next command — the rule decodeRes follows; the
// coordinator copies them out (prefillLogits, prefillIDs) and a worker
// encodes them first. Within a command the q/k/v rows are reused by every
// layer: a layer's ring pass and AppendLocalKV are done with
// them when they return. What peers do read by pointer lives in ring
// (ring.PrefillScratch and the layers' BlockCaches, under the rule at the
// top of ring.go).
type prefillScratch struct {
	ids, pos []int
	hidden   []float32
	q, k, v  tensor.Tensor
	rows     []int     // the sampled slots this rank holds
	sampled  []float32 // their hidden rows, gathered for the last layer
	logits   tensor.Tensor
	next     []int32 // the sampled rows' token ids, under wire.ReplyToken
	ring     ring.PrefillScratch
}

// decodeScratch is the rank engine's decode arena: everything a decode step
// needs besides KV growth, allocated once and reused every step the way
// decodeRes is — the step's reply (logits or token ids) is read or encoded
// before the next command lands, and nothing here outlives the step
// otherwise.
// Within a step the q/k/v rows are reused by every layer: ring.PassQDecode
// copies them out before it involves a peer. What peers do read by pointer
// lives in ring (ring.DecodeScratch, which states the rule that makes its
// reuse safe).
type decodeScratch struct {
	own     decodeOwners
	ids     []int
	pos     []int
	hidden  []float32
	q, k, v tensor.Tensor
	logits  []float32
	next    []int32 // the owned rows' token ids, under wire.ReplyToken
	ring    ring.DecodeScratch
}

func newRankEngine(w *Weights, kvCapacity int, epoch uint64, rec *trace.Recorder) (*rankEngine, error) {
	m := w.Cfg.Model
	e := &rankEngine{w: w, prefixes: make(map[uint64][]*kvcache.Span), rec: rec, epoch: epoch}
	for l := 0; l < m.Layers; l++ {
		kc, err := kvcache.New(kvcache.Config{KVHeads: m.NumKV, HeadDim: m.HeadDim, Capacity: kvCapacity})
		if err != nil {
			return nil, err
		}
		e.caches = append(e.caches, kc)
		e.blocks = append(e.blocks, ring.NewBlockCache())
	}
	return e, nil
}

// prefill executes one rank's share of a fused varseq prefill command: the
// full per-layer loop of embeddings, QKV projection, ring attention, KV
// persistence, and the output head over this rank's token shard. The
// sharding plan is derived from the command — it is a pure function of
// (lengths, world size), so every rank derives the same plan without
// shipping it, and so are the sampled slots.
//
// Unless cmd.Reply is wire.ReplyAll, the last layer narrows to the sampled
// rows this rank holds: its K/V projection, ring exchange and KV persistence
// run for every row as in any layer — the caches, shipped blocks and modeled
// traffic do not depend on the mode — but attention (ring.PrefillInput.Rows),
// the output projection, the FFN and the head run for the sampled rows
// alone. Each of those is row-local and a pass-KV row's attention does not
// depend on which other queries share its block, so a sampled row's logits
// are bit-identical to the same row of an all-rows prefill.
//
// The returned logits live in the engine's prefill arena: they are valid
// until the next command.
func (e *rankEngine) prefill(r *comm.Rank, cmd *wire.PrefillCmd) (*tensor.Tensor, error) {
	m := e.w.Cfg.Model
	s := &e.pre
	lens := make([]int, len(cmd.Tokens))
	for i, toks := range cmd.Tokens {
		lens[i] = len(toks)
	}
	plan, err := sharding.NewBatchShard(lens, r.N())
	if err != nil {
		return nil, err
	}
	run := ring.PassKVPrefill
	if model.Variant(cmd.Variant) == model.PassQ {
		run = ring.PassQPrefill
	}
	lp := plan.LocalPositions(r.ID)
	ls := plan.LocalSeqs(r.ID)
	localLen := plan.LocalLen(r.ID)
	s.ids, s.pos = tensor.Grown(s.ids, localLen), tensor.Grown(s.pos, localLen)
	for slot, pos := range lp {
		if pos == sharding.Pad {
			s.ids[slot] = -1
			s.pos[slot] = -1
		} else {
			s.ids[slot] = cmd.Tokens[ls[slot]][pos]
			s.pos[slot] = cmd.P[ls[slot]] + pos
		}
	}
	s.hidden = tensor.Grown(s.hidden, localLen*m.ModelDim)
	if err := e.w.embedInto(s.hidden, s.ids); err != nil {
		return nil, err
	}
	s.q.Resize(localLen, m.NumHeads, m.HeadDim)
	s.k.Resize(localLen, m.NumKV, m.HeadDim)
	s.v.Resize(localLen, m.NumKV, m.HeadDim)
	var rows []int // the last layer's rows; nil is every row
	hidden, n := s.hidden, localLen
	if cmd.Reply != wire.ReplyAll {
		rows = s.sampledSlots(plan, r.ID)
		n = len(rows)
	}
	for l := 0; l < m.Layers; l++ {
		last := l == m.Layers-1
		e.w.projectQKVInto(&s.q, &s.k, &s.v, l, s.hidden, s.pos)
		in := &ring.PrefillInput{
			Rank: r, Plan: plan, P: cmd.P, SeqIDs: cmd.Seqs,
			Q: &s.q, K: &s.k, V: &s.v,
			Cache: e.caches[l], Blocks: e.blocks[l], Scratch: &s.ring, Elem: m.ElemBytes,
			Trace: e.rec.Sweep(r.ID, e.epoch, "prefill"),
		}
		if last {
			in.Rows = rows
		}
		out, err := run(in)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
		if err := ring.AppendLocalKV(e.caches[l], plan, r.ID, cmd.P, cmd.Seqs, &s.k, &s.v); err != nil {
			return nil, err
		}
		if last && rows != nil {
			hidden = s.gatherHidden(rows, m.ModelDim)
		}
		e.w.finishLayer(l, hidden, out.O)
	}
	e.w.logitsInto(s.logits.Resize(n, 1, m.VocabSize).Data, hidden, n)
	return &s.logits, nil
}

// sampledSlots lists the local slots of the rows a prefill samples — each
// sequence's last new position — that rank holds, in slot order (a plan
// lays its sequences out in order). The list is never nil: an empty one is
// "none", where ring.PrefillInput.Rows == nil is "every row".
func (s *prefillScratch) sampledSlots(plan *sharding.BatchShard, rank int) []int {
	if s.rows == nil {
		s.rows = make([]int, 0, len(plan.SeqLens))
	}
	s.rows = s.rows[:0]
	for i, T := range plan.SeqLens {
		if r, slot := plan.Locate(i, T-1); r == rank {
			s.rows = append(s.rows, slot)
		}
	}
	return s.rows
}

// gatherHidden copies the listed slots' hidden rows into the arena.
func (s *prefillScratch) gatherHidden(rows []int, d int) []float32 {
	s.sampled = tensor.Grown(s.sampled, len(rows)*d)
	for i, slot := range rows {
		copy(s.sampled[i*d:(i+1)*d], s.hidden[slot*d:(slot+1)*d])
	}
	return s.sampled
}

// decodeOwners is the per-rank token assignment of a decode command:
// owned[r] lists the DecodeTokens rank r appends and heads, rows[r] their
// batch-row indices, and blockLen is the uniform circulating block size.
// assign refills it in place, so a holder derives ownership every step
// without allocating once the batch has been seen at its widest.
type decodeOwners struct {
	owned    [][]ring.DecodeToken
	rows     [][]int
	blockLen int
}

// assign derives the assignment from cmd — a pure function of the command,
// identical on every rank.
func (o *decodeOwners) assign(cmd *wire.DecodeCmd, n int) {
	if len(o.owned) != n {
		o.owned, o.rows = make([][]ring.DecodeToken, n), make([][]int, n)
	}
	for r := range o.owned {
		o.owned[r], o.rows[r] = o.owned[r][:0], o.rows[r][:0]
	}
	for i, seq := range cmd.Seqs {
		r := cmd.Owners[i]
		o.owned[r] = append(o.owned[r], ring.DecodeToken{Seq: seq, Pos: cmd.Pos[i]})
		o.rows[r] = append(o.rows[r], i)
	}
	o.blockLen = 1
	for r := range o.owned {
		o.blockLen = max(o.blockLen, len(o.owned[r]))
	}
}

// decode executes one rank's share of a fused batched decode step and
// returns the flat logits of its owned rows (nil when it owns none this
// step — it still participates in every layer's ring attention). The logits
// live in the engine's decode scratch: they are valid until the next decode
// command.
func (e *rankEngine) decode(r *comm.Rank, cmd *wire.DecodeCmd) ([]float32, error) {
	m := e.w.Cfg.Model
	s := &e.dec
	s.own.assign(cmd, r.N())
	mine := s.own.rows[r.ID]
	s.ids, s.pos = tensor.Grown(s.ids, len(mine)), tensor.Grown(s.pos, len(mine))
	for j, row := range mine {
		s.ids[j] = cmd.Tokens[row]
		s.pos[j] = s.own.owned[r.ID][j].Pos
	}
	s.hidden = tensor.Grown(s.hidden, len(mine)*m.ModelDim)
	if err := e.w.embedInto(s.hidden, s.ids); err != nil {
		return nil, err
	}
	s.q.Resize(len(mine), m.NumHeads, m.HeadDim)
	s.k.Resize(len(mine), m.NumKV, m.HeadDim)
	s.v.Resize(len(mine), m.NumKV, m.HeadDim)
	for l := 0; l < m.Layers; l++ {
		e.w.projectQKVInto(&s.q, &s.k, &s.v, l, s.hidden, s.pos)
		out, err := ring.PassQDecode(&ring.DecodeInput{
			Rank: r, NumSeqs: len(cmd.Seqs), BlockLen: s.own.blockLen,
			Owned: s.own.owned[r.ID],
			Q:     &s.q, K: &s.k, V: &s.v,
			Cache: e.caches[l], Scratch: &s.ring, Elem: m.ElemBytes,
			Trace: e.rec.Sweep(r.ID, e.epoch, "decode"),
		})
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
		e.w.finishLayer(l, s.hidden, out.O)
	}
	if len(mine) == 0 {
		return nil, nil
	}
	s.logits = tensor.Grown(s.logits, len(mine)*m.VocabSize)
	e.w.logitsInto(s.logits, s.hidden, len(mine))
	return s.logits, nil
}

// sampleInto writes Argmax of each vocab-wide row of logits into ids, grown
// to the row count in place, and returns it: the greedy sampler, run by the
// rank that holds the rows.
func sampleInto(ids []int32, logits []float32, vocab int) []int32 {
	ids = tensor.Grown(ids, len(logits)/vocab)
	for i := range ids {
		ids[i] = int32(Argmax(logits[i*vocab : (i+1)*vocab]))
	}
	return ids
}

// drop evicts one sequence from every layer's cache.
func (e *rankEngine) drop(seq int) {
	for _, kc := range e.caches {
		kc.Drop(seq)
	}
}

// detach pins the first upTo tokens of a resident sequence into the prefix
// registry under id, returning the per-layer token counts this rank holds
// below the boundary (the coordinator validates the cross-rank sums).
func (e *rankEngine) detach(id uint64, seq, upTo int) ([]int, error) {
	if _, ok := e.prefixes[id]; ok {
		return nil, fmt.Errorf("transformer: prefix id %d already exists", id)
	}
	spans := make([]*kvcache.Span, len(e.caches))
	perLayer := make([]int, len(e.caches))
	for l, kc := range e.caches {
		sp, err := kc.AcquireSpan(seq, upTo)
		if err != nil {
			for _, acquired := range spans[:l] {
				acquired.Release()
			}
			return nil, err
		}
		spans[l] = sp
		perLayer[l] = sp.Tokens()
	}
	e.prefixes[id] = spans
	return perLayer, nil
}

// adopt seeds a new sequence from a detached prefix's spans. Partial
// failures leave layers inconsistent; the caller drops the sequence.
func (e *rankEngine) adopt(seq int, id uint64) error {
	spans, ok := e.prefixes[id]
	if !ok {
		return fmt.Errorf("transformer: adopting unknown prefix id %d", id)
	}
	for l, kc := range e.caches {
		if err := kc.AdoptSpan(seq, spans[l]); err != nil {
			return err
		}
	}
	return nil
}

// releasePrefix frees a detached prefix's page references. Unknown ids are
// a no-op (release after a failed distributed detach).
func (e *rankEngine) releasePrefix(id uint64) {
	for _, sp := range e.prefixes[id] {
		sp.Release()
	}
	delete(e.prefixes, id)
}

// capacity returns the per-layer KV cache capacity (0 = unlimited).
func (e *rankEngine) capacity() int { return e.caches[0].Capacity() }

// capInfo snapshots the admission-control inputs for the listed sequences:
// per-layer free rows and per-(sequence, layer) copy-on-write append
// overhead.
func (e *rankEngine) capInfo(seqs []int) (avail []int, overhead [][]int) {
	avail = make([]int, len(e.caches))
	for l, kc := range e.caches {
		avail[l] = kc.Capacity() - kc.TotalTokens()
	}
	overhead = make([][]int, len(seqs))
	for i, seq := range seqs {
		overhead[i] = make([]int, len(e.caches))
		for l, kc := range e.caches {
			overhead[i][l] = kc.AppendOverhead(seq)
		}
	}
	return avail, overhead
}

// cacheTokens returns this rank's cached tokens summed over layers.
func (e *rankEngine) cacheTokens() int {
	n := 0
	for _, kc := range e.caches {
		n += kc.TotalTokens()
	}
	return n
}

// assembly aggregates the per-layer counters of KV rows copied into shipped
// blocks.
func (e *rankEngine) assembly() ring.BlockCacheStats {
	var total ring.BlockCacheStats
	for _, bc := range e.blocks {
		total.Add(bc.Stats())
	}
	return total
}

// traceResult drains this rank's staged spans and series deltas into a wire
// frame. The worker recorder resets on every drain; the coordinator's merged
// store is the cumulative source of truth.
func (e *rankEngine) traceResult(rank int) *wire.TraceResult {
	if !e.staged {
		return &wire.TraceResult{Rank: rank}
	}
	spans, snaps := e.rec.Drain()
	return &wire.TraceResult{
		Rank:   rank,
		Spans:  spansToWire(spans),
		Series: snapsToWire(snaps),
	}
}

// statsResult snapshots this rank's telemetry into a wire frame: cache
// occupancy, assembly counters, and the world's comm accounting for this
// rank alone (kinds sorted for a deterministic encoding) — in-process every
// engine shares one World, so anything wider would be counted N times. The
// process-global integrity and chaos counters are not the engine's to
// report: whoever hosts the process attaches them, once.
func (e *rankEngine) statsResult(world *comm.World, rank int) *wire.StatsResult {
	a := e.assembly()
	res := &wire.StatsResult{
		CacheTokens: e.cacheTokens(),
		Assembly:    []int64{a.Rebuilds, a.RebuildRows, a.Appends, a.AppendedRows, a.Reuses},
		Links:       world.LinkStats(),
	}
	st := world.RankStats(rank)
	kinds := make([]string, 0, len(st.Messages))
	for k := range st.Messages {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		res.Kinds = append(res.Kinds, k)
		res.Msgs = append(res.Msgs, st.Messages[comm.Kind(k)])
		res.Bytes = append(res.Bytes, st.Bytes[comm.Kind(k)])
	}
	return res
}
