// Package sharding implements the load-balanced context-parallel sharding of
// the paper (§3.5.1, Figures 1 and 2) plus the naive contiguous baseline used
// for the imbalance ablation.
//
// To shard a sequence over N CP ranks the sequence is partitioned evenly into
// 2N chunks C0..C(2N-1) and rank i takes the chunk pair (Ci, C(2N-1-i)). In
// causal attention the early chunks are cheap (few prior tokens) and the late
// chunks expensive, so pairing chunk i with its mirror 2N-1-i equalizes both
// attention compute and KV-cache footprint across ranks. Sequences whose
// length is not a multiple of 2N are padded; padding slots carry position -1
// and are masked out of attention and dropped when unsharding.
//
// For fused variable-length batches every sequence is sharded the same way
// independently (Figure 1). For partial prefill only the new-token dimension
// is sharded; previously cached KV stays wherever it was produced (Figure 2).
// For decode, tokens are assigned round-robin with a per-step offset so that
// KV-cache growth stays balanced (§3.6).
package sharding

import (
	"fmt"

	"repro/internal/tensor"
)

// Pad is the position value of padding slots.
const Pad = -1

// ChunkCount returns the number of chunks a sequence is partitioned into for
// N ranks.
func ChunkCount(n int) int { return 2 * n }

// PaddedLen returns the sequence length after padding to a multiple of 2N.
// A zero-length sequence stays zero.
func PaddedLen(T, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sharding: non-positive rank count %d", n))
	}
	if T == 0 {
		return 0
	}
	c := ChunkCount(n)
	return (T + c - 1) / c * c
}

// ChunkLen returns the per-chunk token count after padding.
func ChunkLen(T, n int) int { return PaddedLen(T, n) / ChunkCount(n) }

// RankChunks returns the two chunk indices owned by a rank: (rank, 2N-1-rank).
func RankChunks(rank, n int) (int, int) {
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("sharding: rank %d out of range for %d ranks", rank, n))
	}
	return rank, ChunkCount(n) - 1 - rank
}

// LoadBalancedPositions returns the global positions (within the sequence's
// new tokens, 0-based) owned by rank, in local storage order: first chunk
// rank, then chunk 2N-1-rank. Slots beyond the sequence length hold Pad.
// Every rank's slice has the same length 2*ChunkLen(T, n), which is what lets
// the ring algorithms exchange equal-sized messages.
func LoadBalancedPositions(T, n, rank int) []int {
	return appendLoadBalanced(make([]int, 0, 2*ChunkLen(T, n)), T, n, rank)
}

// appendLoadBalanced appends LoadBalancedPositions(T, n, rank) to dst.
func appendLoadBalanced(dst []int, T, n, rank int) []int {
	cl := ChunkLen(T, n)
	lo, hi := RankChunks(rank, n)
	for _, c := range [2]int{lo, hi} {
		for i := 0; i < cl; i++ {
			p := c*cl + i
			if p >= T {
				p = Pad
			}
			dst = append(dst, p)
		}
	}
	return dst
}

// StripedPositions returns striped-attention style sharding (Brandon et
// al.): rank i takes positions i, i+n, i+2n, ... Striping also balances
// causal compute (each rank holds every n-th token) but fragments KV
// locality into single tokens; the paper's mirrored-chunk scheme keeps
// contiguous chunks instead. Implemented for the sharding ablation.
func StripedPositions(T, n, rank int) []int {
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("sharding: rank %d out of range for %d ranks", rank, n))
	}
	if T == 0 {
		return nil
	}
	per := (T + n - 1) / n
	out := make([]int, per)
	for i := range out {
		p := rank + i*n
		if p >= T {
			p = Pad
		}
		out[i] = p
	}
	return out
}

// Runs counts the maximal runs of consecutive positions in a shard — the
// KV-locality metric of the sharding ablation (fewer, longer runs mean
// larger contiguous attention blocks per ring step).
func Runs(positions []int) int {
	runs := 0
	prev := -10
	for _, p := range positions {
		if p == Pad {
			prev = -10
			continue
		}
		if p != prev+1 {
			runs++
		}
		prev = p
	}
	return runs
}

// ContiguousPositions returns the naive baseline sharding: rank i takes the
// i-th contiguous block of ceil(T/n) positions (padded at the tail). Used
// only for the load-imbalance ablation.
func ContiguousPositions(T, n, rank int) []int {
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("sharding: rank %d out of range for %d ranks", rank, n))
	}
	if T == 0 {
		return nil
	}
	per := (T + n - 1) / n
	out := make([]int, per)
	for i := range out {
		p := rank*per + i
		if p >= T {
			p = Pad
		}
		out[i] = p
	}
	return out
}

// CausalPairs counts the causal attention (query, key) pairs a rank computes
// in a full prefill when it owns queries at the given positions: each query
// at position p attends to p+1 keys. Padding slots cost nothing. This is the
// compute-load metric the balanced sharding equalizes.
func CausalPairs(positions []int) int64 {
	var total int64
	for _, p := range positions {
		if p == Pad {
			continue
		}
		total += int64(p) + 1
	}
	return total
}

// ---------------------------------------------------------------------------
// Fused variable-length batches.
// ---------------------------------------------------------------------------

// BatchShard is a sharding plan for a fused batch of sequences over N ranks.
type BatchShard struct {
	N       int
	SeqLens []int   // new-token count per sequence
	offsets []int   // row offset of each sequence in the fused tensor
	slots   []int   // first local slot of each sequence, the same on every rank
	pos     [][]int // pos[rank] = fused local positions, see LocalPositions
	seq     [][]int // seq[rank] = sequence id per local slot
}

// NewBatchShard builds the load-balanced plan for the given per-sequence
// new-token lengths.
func NewBatchShard(seqLens []int, n int) (*BatchShard, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sharding: non-positive rank count %d", n)
	}
	if len(seqLens) == 0 {
		return nil, fmt.Errorf("sharding: empty batch")
	}
	b := &BatchShard{N: n, SeqLens: append([]int(nil), seqLens...)}
	b.offsets = make([]int, len(seqLens))
	b.slots = make([]int, len(seqLens))
	off, local := 0, 0
	for i, T := range seqLens {
		if T < 0 {
			return nil, fmt.Errorf("sharding: negative sequence length %d", T)
		}
		b.offsets[i], b.slots[i] = off, local
		off += T
		local += 2 * ChunkLen(T, n)
	}
	// Every rank holds local slots: each sequence's load-balanced positions,
	// in sequence order.
	b.pos = make([][]int, n)
	b.seq = make([][]int, n)
	for r := 0; r < n; r++ {
		pos, seq := make([]int, 0, local), make([]int, 0, local)
		for i, T := range seqLens {
			pos = appendLoadBalanced(pos, T, n, r)
			for len(seq) < len(pos) {
				seq = append(seq, i)
			}
		}
		b.pos[r], b.seq[r] = pos, seq
	}
	return b, nil
}

// TotalTokens returns the unpadded fused token count.
func (b *BatchShard) TotalTokens() int {
	t := 0
	for _, l := range b.SeqLens {
		t += l
	}
	return t
}

// SeqOffset returns the fused-tensor row offset of sequence i.
func (b *BatchShard) SeqOffset(i int) int { return b.offsets[i] }

// LocalLen returns the number of local slots (including padding) on a rank;
// identical across ranks by construction.
func (b *BatchShard) LocalLen(rank int) int { return len(b.pos[rank]) }

// LocalPositions returns, for each local slot on rank, the position within
// its sequence's new tokens (Pad for padding). The returned slice aliases
// internal state and must not be mutated.
func (b *BatchShard) LocalPositions(rank int) []int { return b.pos[rank] }

// LocalSeqs returns the sequence id of each local slot on rank. The returned
// slice aliases internal state and must not be mutated.
func (b *BatchShard) LocalSeqs(rank int) []int { return b.seq[rank] }

// Locate returns the rank and local slot holding new-token position p of
// sequence i: chunk c = p / ChunkLen is rank c's first chunk when c < N and
// rank 2N-1-c's second otherwise (RankChunks), inside the run of slots the
// sequence starts at the same offset on every rank.
func (b *BatchShard) Locate(i, p int) (rank, slot int) {
	T := b.SeqLens[i]
	if p < 0 || p >= T {
		panic(fmt.Sprintf("sharding: position %d outside sequence %d's %d new tokens", p, i, T))
	}
	cl := ChunkLen(T, b.N)
	c := p / cl
	rank, slot = c, p%cl
	if c >= b.N {
		rank, slot = ChunkCount(b.N)-1-c, cl+p%cl
	}
	return rank, b.slots[i] + slot
}

// Shard gathers the local rows of a fused tensor for one rank. Padding slots
// become zero rows. The fused tensor must have TotalTokens rows, sequences
// concatenated in order.
func (b *BatchShard) Shard(full *tensor.Tensor, rank int) *tensor.Tensor {
	if full.Tokens != b.TotalTokens() {
		panic(fmt.Sprintf("sharding: fused tensor has %d tokens, want %d", full.Tokens, b.TotalTokens()))
	}
	local := tensor.New(b.LocalLen(rank), full.Heads, full.Dim)
	for slot, p := range b.pos[rank] {
		if p == Pad {
			continue
		}
		src := b.offsets[b.seq[rank][slot]] + p
		copy(local.Row2D(slot), full.Row2D(src))
	}
	return local
}

// Unshard scatters per-rank local tensors back into fused order, dropping
// padding slots. Inverse of Shard over non-padding slots.
func (b *BatchShard) Unshard(locals []*tensor.Tensor) *tensor.Tensor {
	if len(locals) != b.N {
		panic(fmt.Sprintf("sharding: %d locals for %d ranks", len(locals), b.N))
	}
	heads, dim := locals[0].Heads, locals[0].Dim
	full := tensor.New(b.TotalTokens(), heads, dim)
	for r, local := range locals {
		if local.Tokens != b.LocalLen(r) {
			panic(fmt.Sprintf("sharding: rank %d local has %d tokens, want %d", r, local.Tokens, b.LocalLen(r)))
		}
		for slot, p := range b.pos[r] {
			if p == Pad {
				continue
			}
			dst := b.offsets[b.seq[r][slot]] + p
			copy(full.Row2D(dst), local.Row2D(slot))
		}
	}
	return full
}

// ---------------------------------------------------------------------------
// Decode round-robin assignment (§3.6).
// ---------------------------------------------------------------------------

// DecodeOwner returns the rank that stores the KV of (and computes the local
// query for) sequence seq at decode step. The assignment is round-robin over
// the batch and offset by one on every step so that KV-cache growth is
// spread evenly across ranks instead of pinning each sequence to one rank.
func DecodeOwner(seq, step, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sharding: non-positive rank count %d", n))
	}
	m := (seq + step) % n
	if m < 0 {
		m += n
	}
	return m
}

// DecodeAssignment returns the owner rank of each sequence in a batch at the
// given step.
func DecodeAssignment(batch, step, n int) []int {
	out := make([]int, batch)
	for i := range out {
		out[i] = DecodeOwner(i, step, n)
	}
	return out
}

// StaticOwner is the ablation baseline that always assigns a sequence to the
// same rank regardless of step.
func StaticOwner(seq, n int) int { return DecodeOwner(seq, 0, n) }
