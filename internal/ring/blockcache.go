package ring

import (
	"fmt"

	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/tensor"
)

// BlockCache keeps, per sequence, the assembled contiguous KV segment the
// ring algorithms attend against — the [cached rows..., new rows...,
// padding] layout localKV produces and decodeBlockAttention reads. The seed
// engine re-gathered and re-concatenated the whole cached context from the
// paged kvcache on every prefill chunk and every decode sweep row, an
// O(context) copy per TokenBudget step; the BlockCache instead mirrors each
// sequence's kvcache rows once and extends the mirror incrementally, so a
// chunk copies only its own new rows and a decode step at most the one row
// appended since the last sweep.
//
// Like kvcache.Cache, a BlockCache is owned by exactly one rank goroutine
// (one per rank per layer) and is not safe for concurrent use. Its tensors
// are handed to peers as zero-copy views during a ring pass; that is safe
// because the owner only appends — never rewrites — mirrored rows, and it
// does so strictly between passes (the cluster joins every rank before the
// next chunk or decode step starts). The same holds for the layer's
// circulating prefill block, which the cache also owns (the lifetime rule at
// the top of ring.go).
type BlockCache struct {
	seqs  map[int]*seqBlock
	stats BlockCacheStats
	// blk is the layer's circulating prefill block, as localKV last
	// returned it: a view of one sequence's mirror, or of fused, which
	// holds a multi-sequence block's segments back to back.
	blk        wire.KVBlock
	blkK, blkV tensor.Tensor
	fused      fusedBlock
}

// fusedBlock is the storage of a multi-sequence prefill block.
type fusedBlock struct {
	k, v     []float32
	pos, seq []int
}

// reset empties f, keeping its storage, and returns it.
func (f *fusedBlock) reset() *fusedBlock {
	f.k, f.v, f.pos, f.seq = f.k[:0], f.v[:0], f.pos[:0], f.seq[:0]
	return f
}

// circulate points the layer's prefill block at len(pos) rows of k and v
// with their mask metadata, and returns it.
func (bc *BlockCache) circulate(k, v []float32, pos, seq []int, nkv, dh int) *wire.KVBlock {
	bc.blkK = tensor.Tensor{Tokens: len(pos), Heads: nkv, Dim: dh, Data: k}
	bc.blkV = tensor.Tensor{Tokens: len(pos), Heads: nkv, Dim: dh, Data: v}
	bc.blk = wire.KVBlock{K: &bc.blkK, V: &bc.blkV, Pos: pos, Seq: seq}
	return &bc.blk
}

// BlockCacheStats counts the copy work the assembled-block cache performed,
// exposed through /v1/stats so the zero-rebuild property is observable (and
// asserted in tests).
type BlockCacheStats struct {
	Rebuilds     int64 `json:"rebuilds"`      // full mirror (re)builds from the kvcache
	RebuildRows  int64 `json:"rebuild_rows"`  // rows copied by those rebuilds
	Appends      int64 `json:"appends"`       // incremental syncs that copied >= 1 row
	AppendedRows int64 `json:"appended_rows"` // rows copied incrementally (cache deltas + chunk rows)
	Reuses       int64 `json:"reuses"`        // syncs that copied nothing: mirror already current
}

// Add accumulates other into s; the cluster uses it to aggregate per-rank
// per-layer caches.
func (s *BlockCacheStats) Add(other BlockCacheStats) {
	s.Rebuilds += other.Rebuilds
	s.RebuildRows += other.RebuildRows
	s.Appends += other.Appends
	s.AppendedRows += other.AppendedRows
	s.Reuses += other.Reuses
}

// seqBlock is one sequence's mirrored segment. k and v are row-major
// [n][NKV][DH] backing arrays with geometric spare capacity; pos holds the
// global position of every mirrored row, plus any padding rows written past
// n for the current chunk. n never exceeds the kvcache row count except
// transiently within one prefill chunk (see advance), and falls back to a
// full rebuild whenever the mirror and the kvcache disagree.
type seqBlock struct {
	k, v []float32
	pos  []int
	n    int
	// maxPos is the largest global position of any mirrored row — O(1)
	// state for the stale-span guard, covering every row that ever entered
	// the mirror (prefill syncs, decode syncs, optimistic advances alike).
	maxPos int
	// seqFill is the mask sequence-id array for views of this block: a
	// constant-value slice re-filled only when the value (batch index for
	// prefill, batch sequence id for decode) or the needed length changes.
	seqFill    []int
	seqFillVal int
	// kT and vT are the tensor headers kv hands out, rewritten per call.
	kT, vT tensor.Tensor
}

// NewBlockCache returns an empty assembled-block cache.
func NewBlockCache() *BlockCache {
	return &BlockCache{seqs: make(map[int]*seqBlock)}
}

// Drop forgets a sequence's mirror. Call whenever the underlying kvcache
// drops the sequence; a stale mirror is detected and rebuilt anyway, but
// dropping eagerly frees the memory.
func (bc *BlockCache) Drop(seq int) {
	delete(bc.seqs, seq)
}

// Stats returns the cumulative copy counters.
func (bc *BlockCache) Stats() BlockCacheStats { return bc.stats }

// ensure grows the backing arrays to hold rows rows of rowLen floats.
func (b *seqBlock) ensure(rows, rowLen int) {
	if need := rows * rowLen; cap(b.k) < need {
		grow := 2 * cap(b.k)
		if grow < need {
			grow = need
		}
		nk := make([]float32, grow)
		copy(nk, b.k[:b.n*rowLen])
		nv := make([]float32, grow)
		copy(nv, b.v[:b.n*rowLen])
		b.k, b.v = nk, nv
	}
	b.k = b.k[:cap(b.k)]
	b.v = b.v[:cap(b.v)]
	if cap(b.pos) < rows {
		grow := 2 * cap(b.pos)
		if grow < rows {
			grow = rows
		}
		np := make([]int, grow)
		copy(np, b.pos[:b.n])
		b.pos = np
	}
	b.pos = b.pos[:cap(b.pos)]
}

// seqIDs returns the constant-value sequence-id slice for the first rows
// rows of the block. It grows by doubling, like ensure, so a decode stream
// that asks for one more row every step allocates O(log steps) times.
func (b *seqBlock) seqIDs(val, rows int) []int {
	if len(b.seqFill) < rows || b.seqFillVal != val {
		if cap(b.seqFill) < rows {
			b.seqFill = make([]int, max(rows, 2*cap(b.seqFill)))
		}
		b.seqFill = b.seqFill[:cap(b.seqFill)]
		for i := range b.seqFill {
			b.seqFill[i] = val
		}
		b.seqFillVal = val
	}
	return b.seqFill[:rows]
}

// sync brings the mirror up to date with the kvcache's rows for key. Rows
// appended since the last sync are fetched incrementally; a mirror that is
// ahead of the cache (a ring pass failed after an optimistic advance) is
// rebuilt from scratch. When base >= 0 every newly mirrored row's position
// must be < base — the partial-prefill overlap check the seed ran over the
// whole context every chunk, now run once per row over its lifetime (the
// bound only grows, so previously validated rows stay valid).
func (bc *BlockCache) sync(cache *kvcache.Cache, key, base, rowLen int) (*seqBlock, error) {
	b := bc.seqs[key]
	if b == nil {
		b = &seqBlock{seqFillVal: -1, maxPos: -1}
		bc.seqs[key] = b
	}
	cacheLen := 0
	if cache != nil {
		cacheLen = cache.SeqLen(key)
	}
	if b.n > cacheLen {
		b.n = 0 // mirror ran ahead of a failed pass: rebuild below
		b.maxPos = -1
	}
	if b.n < cacheLen {
		rebuild := b.n == 0
		b.ensure(cacheLen, rowLen)
		// Delta rows land directly in the mirror's backing arrays — no
		// intermediate tensors on the sweep path.
		delta := int64(cache.CopyRange(key, b.n, b.k[b.n*rowLen:], b.v[b.n*rowLen:], b.pos[b.n:cacheLen]))
		for _, cp := range b.pos[b.n:cacheLen] {
			if cp > b.maxPos {
				b.maxPos = cp
			}
		}
		b.n = cacheLen
		if rebuild {
			bc.stats.Rebuilds++
			bc.stats.RebuildRows += delta
		} else {
			bc.stats.Appends++
			bc.stats.AppendedRows += delta
		}
	} else {
		bc.stats.Reuses++
	}
	// The guard runs on every prefill sync over maxPos, which summarizes the
	// whole mirror — rows that entered through earlier chunks or decode
	// sweeps included — so its coverage equals the seed's full per-chunk
	// rescan at O(1) cost. (A chunk's own optimistically advanced rows sit
	// at positions < base+chunk and are covered by the next chunk's larger
	// base, exactly as the seed's cached-rows-only scan covered them.)
	if base >= 0 && b.maxPos >= base {
		return nil, fmt.Errorf("cached position %d >= prefill base %d", b.maxPos, base)
	}
	return b, nil
}

// advance appends freshly computed rows (a prefill chunk's new tokens) to
// the mirror ahead of the kvcache: the engine appends exactly these rows to
// the cache right after the ring pass, so the mirror is already correct for
// the next chunk. If the pass fails and the cache append never happens, the
// next sync notices the mirror is ahead and rebuilds. k and v hold len(pos)
// rows; those whose position is negative (padding) are skipped, as
// kvcache.Cache.Append skips them.
func (b *seqBlock) advance(bc *BlockCache, rowLen int, k, v []float32, pos []int) {
	n := 0
	for _, p := range pos {
		if p >= 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	b.ensure(b.n+n, rowLen)
	for i, p := range pos {
		if p < 0 {
			continue
		}
		copy(b.k[b.n*rowLen:][:rowLen], k[i*rowLen:])
		copy(b.v[b.n*rowLen:][:rowLen], v[i*rowLen:])
		b.pos[b.n] = p
		b.maxPos = max(b.maxPos, p)
		b.n++
	}
	bc.stats.Appends++
	bc.stats.AppendedRows += int64(n)
}

// pad writes padCount zero rows with position -1 after the mirrored rows
// (not advancing n: padding belongs to this chunk only and is overwritten by
// the next chunk's real rows).
func (b *seqBlock) pad(rowLen, padCount int) {
	if padCount == 0 {
		return
	}
	b.ensure(b.n+padCount, rowLen)
	clear(b.k[b.n*rowLen : (b.n+padCount)*rowLen])
	clear(b.v[b.n*rowLen : (b.n+padCount)*rowLen])
	for i := 0; i < padCount; i++ {
		b.pos[b.n+i] = -1
	}
}

// view materializes the first rows rows (mirror plus any padding just
// written) as zero-copy tensors plus the mask metadata, tagging every row
// with sequence id seqVal.
func (b *seqBlock) view(rows, nkv, dh, seqVal int) (k, v *tensor.Tensor, pos, seq []int, err error) {
	rowLen := nkv * dh
	k, err = tensor.FromData(rows, nkv, dh, b.k[:rows*rowLen])
	if err != nil {
		return nil, nil, nil, nil, err
	}
	v, err = tensor.FromData(rows, nkv, dh, b.v[:rows*rowLen])
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return k, v, b.pos[:rows], b.seqIDs(seqVal, rows), nil
}

// kv returns the mirrored rows as tensors for a decode sweep. Unlike view's,
// the headers are the block's own, rewritten on every call: decode keeps KV
// stationary, so they never reach a peer, and the sweep needs neither the
// position nor the sequence-id metadata (attention.DecodeInto takes the rows
// as one admitted interval).
func (b *seqBlock) kv(nkv, dh int) (k, v *tensor.Tensor) {
	rowLen := nkv * dh
	b.kT = tensor.Tensor{Tokens: b.n, Heads: nkv, Dim: dh, Data: b.k[:b.n*rowLen]}
	b.vT = tensor.Tensor{Tokens: b.n, Heads: nkv, Dim: dh, Data: b.v[:b.n*rowLen]}
	return &b.kT, &b.vT
}
