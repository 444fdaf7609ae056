// Package prefixcache implements the cluster-wide prefix KV-reuse tree: a
// radix tree over token sequences whose nodes reference the sharded KV spans
// (per-rank page ranges in internal/kvcache) that a canonical prefill of
// their prefix produced. Released sessions detach their reusable prefix into
// the tree instead of dropping it; admission looks up the longest exact
// prefix match and seeds new sequences from the cached KV, so multi-turn
// reconnects and sibling sessions sharing a system prompt skip straight to
// the miss suffix (§3.3's persistent-KV multi-turn story, SGLang-style
// radix caching at the serving layer).
//
// Edges are whole blocks of BlockSize tokens — the scheduler's prefill chunk
// size — because per-rank KV placement (and the Eq. 1 variant choice) is a
// pure function of absolute position only at chunk-aligned boundaries. Hits
// are therefore always block-aligned, which is exactly the granularity at
// which adopted KV is bit-identical to a cold prefill; vLLM's block-hash
// prefix caching makes the same alignment choice for the same reason.
//
// The tree is safe for concurrent use, but entry Release callbacks fire
// inside tree operations (insert-over-budget and explicit eviction), so
// callers whose entries touch rank-local KV caches must serialize those
// operations against cluster execution — the scheduler runs every tree
// mutation on its step-loop thread under the execution lock.
package prefixcache

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Entry is the KV payload attached to a tree node — in serving, the per-rank
// per-layer span handles of the node's full token prefix. Release is called
// exactly once, when the node is evicted or the tree is cleared.
type Entry interface {
	Release()
}

// Config sizes a tree.
type Config struct {
	// BlockSize is the token granularity of edges and hits. Must match the
	// canonical prefill chunk size, or adopted KV would not replay a cold
	// prefill's per-rank placement.
	BlockSize int
	// Capacity bounds the tokens held by the tree's detached branches;
	// exceeding it evicts least-recently-used leaves. 0 = unlimited.
	Capacity int
}

// Stats is a snapshot of the tree's telemetry.
type Stats struct {
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`        // lookups that matched >= 1 block
	HitTokens  int64 `json:"hit_tokens"`  // tokens served from the tree
	MissTokens int64 `json:"miss_tokens"` // looked-up tokens past the match

	InsertedTokens int64 `json:"inserted_tokens"`
	Evictions      int64 `json:"evictions"`
	EvictedTokens  int64 `json:"evicted_tokens"`

	Nodes     int `json:"nodes"`
	Tokens    int `json:"tokens"` // tokens currently cached
	BlockSize int `json:"block_size"`
	Capacity  int `json:"capacity"`
}

// HitRate returns hit tokens over looked-up tokens.
func (s Stats) HitRate() float64 {
	total := s.HitTokens + s.MissTokens
	if total == 0 {
		return 0
	}
	return float64(s.HitTokens) / float64(total)
}

type node struct {
	parent   *node
	key      string // block token encoding (blockKey), "" for the root
	children map[string]*node
	entry    Entry // nil only on the root
	depth    int   // tokens from the root through this node's block
	lastUse  int64
}

// Tree is the prefix-reuse radix tree.
type Tree struct {
	mu    sync.Mutex
	cfg   Config
	root  *node
	clock int64
	stats Stats
	key   []byte // blockKey's buffer, reused under mu
}

// New builds an empty tree.
func New(cfg Config) (*Tree, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("prefixcache: non-positive block size %d", cfg.BlockSize)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("prefixcache: negative capacity %d", cfg.Capacity)
	}
	return &Tree{
		cfg:  cfg,
		root: &node{children: make(map[string]*node)},
	}, nil
}

// blockKey encodes one block of tokens for exact child matching — content
// equality, never hashing, so a hit is always an exact prefix match. Each
// token is a zigzag varint, which is self-delimiting, so distinct blocks
// never share a key. The encoding goes into the tree's buffer (the caller
// holds mu): a lookup indexes with children[string(key)], which does not
// allocate, and only a new node copies the key into a string it owns.
func (t *Tree) blockKey(block []int) []byte {
	t.key = t.key[:0]
	for _, tok := range block {
		t.key = binary.AppendVarint(t.key, int64(tok))
	}
	return t.key
}

// Lookup returns the longest cached block-aligned prefix of tokens and its
// entry. The match is capped below len(tokens) so a fully cached prompt
// still prefills at least one token (the engine needs fresh logits for the
// last position). The matched path is touched for LRU.
func (t *Tree) Lookup(tokens []int) (int, Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Lookups++
	b := t.cfg.BlockSize
	maxDepth := 0
	if len(tokens) > 0 {
		maxDepth = (len(tokens) - 1) / b * b
	}
	t.clock++
	cur := t.root
	var best *node
	for cur.depth+b <= maxDepth {
		child := cur.children[string(t.blockKey(tokens[cur.depth:cur.depth+b]))]
		if child == nil {
			break
		}
		child.lastUse = t.clock
		best = child
		cur = child
	}
	if best == nil {
		t.stats.MissTokens += int64(len(tokens))
		return 0, nil
	}
	t.stats.Hits++
	t.stats.HitTokens += int64(best.depth)
	t.stats.MissTokens += int64(len(tokens) - best.depth)
	return best.depth, best.entry
}

// Insert detaches the block-aligned prefix of tokens into the tree. For each
// block boundary not yet cached, build(depth) must return the entry pinning
// the KV of tokens[:depth]; a build error stops the insert at the blocks
// already added. Returns the tokens newly added. Inserting may evict LRU
// leaves to stay within capacity.
func (t *Tree) Insert(tokens []int, build func(depth int) (Entry, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.cfg.BlockSize
	aligned := len(tokens) / b * b
	t.clock++
	cur := t.root
	added := 0
	var err error
	for cur.depth+b <= aligned {
		key := t.blockKey(tokens[cur.depth : cur.depth+b])
		child := cur.children[string(key)]
		if child == nil {
			var entry Entry
			entry, err = build(cur.depth + b)
			if err != nil {
				break
			}
			child = &node{
				parent:   cur,
				key:      string(key),
				children: make(map[string]*node),
				entry:    entry,
				depth:    cur.depth + b,
			}
			cur.children[child.key] = child
			t.stats.Nodes++
			t.stats.Tokens += b
			t.stats.InsertedTokens += int64(b)
			added += b
		}
		child.lastUse = t.clock
		cur = child
	}
	if t.cfg.Capacity > 0 {
		t.evictLocked(t.stats.Tokens - t.cfg.Capacity)
	}
	return added, err
}

// EvictTokens evicts least-recently-used leaves until at least n tokens have
// been released or nothing evictable remains, returning the tokens freed.
// The scheduler calls it when a rank reports KV capacity pressure.
func (t *Tree) EvictTokens(n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictLocked(n)
}

// evictLocked removes leaves, least recently used first, until n tokens are
// freed or nothing evictable remains. Only leaves are evictable: an interior
// node's block is the path to every descendant. Leaves are collected and
// sorted once per wave (a parent only becomes evictable after its last child
// goes, i.e. in the next wave), so eviction costs one DFS + sort per wave
// instead of one full-tree scan per leaf.
func (t *Tree) evictLocked(n int) int {
	freed := 0
	for freed < n && t.stats.Nodes > 0 {
		leaves := t.leavesLocked()
		if len(leaves) == 0 {
			break
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].lastUse < leaves[j].lastUse })
		for _, leaf := range leaves {
			if freed >= n {
				return freed
			}
			freed += t.removeLocked(leaf)
		}
	}
	return freed
}

// leavesLocked collects every evictable leaf in one walk.
func (t *Tree) leavesLocked() []*node {
	var out []*node
	var walk func(*node)
	walk = func(nd *node) {
		if len(nd.children) == 0 {
			if nd != t.root {
				out = append(out, nd)
			}
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

func (t *Tree) removeLocked(nd *node) int {
	delete(nd.parent.children, nd.key)
	nd.entry.Release()
	t.stats.Nodes--
	t.stats.Tokens -= t.cfg.BlockSize
	t.stats.Evictions++
	t.stats.EvictedTokens += int64(t.cfg.BlockSize)
	return t.cfg.BlockSize
}

// Clear evicts every node, releasing all entries.
func (t *Tree) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked(t.stats.Tokens)
}

// Tokens returns the tokens currently cached.
func (t *Tree) Tokens() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.Tokens
}

// BlockSize returns the tree's token alignment granularity.
func (t *Tree) BlockSize() int { return t.cfg.BlockSize }

// Stats snapshots the tree's telemetry.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.BlockSize = t.cfg.BlockSize
	st.Capacity = t.cfg.Capacity
	return st
}
