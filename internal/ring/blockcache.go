package ring

import (
	"fmt"
	"slices"

	"repro/internal/comm/wire"
	"repro/internal/tensor"
)

// BlockCache is one rank's per-layer send buffer: the KV block pass-KV
// circulates, assembled from the rank's cache and its new rows (see
// PrefillInput.shippedKV), plus the counters of that copy work. The kvcache
// is the only per-sequence KV store; pass-Q and decode keep KV stationary and
// attend the cache's pages in place, so they copy nothing and need no buffer.
// The buffer belongs to the layer, not to a sequence: it grows to the
// largest block the layer has shipped and is reused by every command after
// that.
//
// Like kvcache.Cache, a BlockCache is owned by exactly one rank goroutine and
// is not safe for concurrent use. Its block is handed to peers as a
// zero-copy view during a ring pass and rewritten only by the next command's
// pass over the layer (the lifetime rule at the top of ring.go).
type BlockCache struct {
	stats      BlockCacheStats
	blk        wire.KVBlock
	blkK, blkV tensor.Tensor
	k, v       []float32
	pos, seq   []int
}

// NewBlockCache returns an empty send buffer.
func NewBlockCache() *BlockCache { return new(BlockCache) }

// BlockCacheStats counts the KV rows copied into shipped blocks, exposed
// through /v1/stats so the one-copy property is observable (and asserted in
// tests): pass-KV copies exactly the rows it ships, pass-Q and decode none.
type BlockCacheStats struct {
	Rebuilds     int64 `json:"rebuilds"`      // shipped segments holding cached rows
	RebuildRows  int64 `json:"rebuild_rows"`  // cached rows copied into them (CopyRange)
	Appends      int64 `json:"appends"`       // shipped segments holding this chunk's rows
	AppendedRows int64 `json:"appended_rows"` // new rows copied into them
	Reuses       int64 `json:"reuses"`        // pass-Q segments attended in place, nothing copied
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

// Stats returns the cumulative copy counters.
func (bc *BlockCache) Stats() BlockCacheStats { return bc.stats }

// shippedKV assembles the KV block this rank ships: for every sequence, its
// cached rows (CopyRange), then this chunk's new rows (plan order, padding
// slots skipped), then zero rows at position -1 up to padTo[i] — Algorithm
// 2's concat_i(pad(P_k^i + T_k^i, L_i)); nil padTo pads nothing. One or many
// sequences, the block is assembled the same way into the layer's buffer
// (the BlockCache's; nil assembles into a transient one). qPos is the query
// mask's position list, which is also each new row's position. A cached row
// at or past P^i (a stale or adopted span overlapping the new range) would
// duplicate positions and silently corrupt causality, so it is rejected.
func (in *PrefillInput) shippedKV(qPos, padTo []int) (*wire.KVBlock, error) {
	bc := in.Blocks
	if bc == nil {
		bc = NewBlockCache()
	}
	nkv, dh := in.K.Heads, in.K.Dim
	rowLen := nkv * dh
	bc.k, bc.v, bc.pos, bc.seq = bc.k[:0], bc.v[:0], bc.pos[:0], bc.seq[:0]
	err := forSeqSlots(in.Plan, in.Rank.ID, func(i, lo, hi int) error {
		cached, err := in.cachedRows(i)
		if err != nil {
			return err
		}
		rows := cached
		for _, p := range qPos[lo:hi] {
			if p >= 0 {
				rows++
			}
		}
		total := rows
		if padTo != nil {
			if rows > padTo[i] {
				return fmt.Errorf("ring: rank %d sequence %d has %d KV rows > pad target %d",
					in.Rank.ID, i, rows, padTo[i])
			}
			total = padTo[i]
		}
		at := len(bc.pos)
		bc.k = slices.Grow(bc.k, total*rowLen)[:(at+total)*rowLen]
		bc.v = slices.Grow(bc.v, total*rowLen)[:(at+total)*rowLen]
		bc.pos = slices.Grow(bc.pos, total)[:at+total]
		bc.seq = slices.Grow(bc.seq, total)[:at+total]
		if cached > 0 {
			in.Cache.CopyRange(in.seqKey(i), 0, bc.k[at*rowLen:], bc.v[at*rowLen:], bc.pos[at:at+cached])
			bc.stats.Rebuilds++
			bc.stats.RebuildRows += int64(cached)
		}
		r := at + cached
		for j := lo; j < hi; j++ {
			if qPos[j] < 0 {
				continue
			}
			copy(bc.k[r*rowLen:(r+1)*rowLen], in.K.Data[j*rowLen:])
			copy(bc.v[r*rowLen:(r+1)*rowLen], in.V.Data[j*rowLen:])
			bc.pos[r] = qPos[j]
			r++
		}
		if fresh := r - at - cached; fresh > 0 {
			bc.stats.Appends++
			bc.stats.AppendedRows += int64(fresh)
		}
		clear(bc.k[r*rowLen:])
		clear(bc.v[r*rowLen:])
		for ; r < at+total; r++ {
			bc.pos[r] = -1
		}
		for j := at; j < at+total; j++ {
			bc.seq[j] = i
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(bc.pos)
	bc.blkK = tensor.Tensor{Tokens: n, Heads: nkv, Dim: dh, Data: bc.k}
	bc.blkV = tensor.Tensor{Tokens: n, Heads: nkv, Dim: dh, Data: bc.v}
	bc.blk = wire.KVBlock{K: &bc.blkK, V: &bc.blkV, Pos: bc.pos, Seq: bc.seq}
	return &bc.blk, nil
}

// cachedRows returns how many rows batch-plan sequence i has in the cache,
// after checking that every one of them lies before the prefill base P^i —
// in O(1), through the cache's running maximum position.
func (in *PrefillInput) cachedRows(i int) (int, error) {
	if in.Cache == nil {
		return 0, nil
	}
	key := in.seqKey(i)
	if mp := in.Cache.MaxPos(key); mp >= in.P[i] {
		return 0, fmt.Errorf("ring: rank %d sequence %d has cached position %d >= prefill base %d",
			in.Rank.ID, i, mp, in.P[i])
	}
	return in.Cache.SeqLen(key), nil
}
