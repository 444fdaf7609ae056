// Package kvcache implements the per-rank persistent key/value cache that
// context-parallel inference shards across CP ranks. Each rank of a CP group
// holds a disjoint subset of every sequence's KV entries, tagged with their
// global positions so ring attention can evaluate causality after the
// load-balanced (non-contiguous) sharding. The cache persists across turns
// of a conversation: full prefill seeds it, partial prefill and decode append
// to it (§3.3).
//
// Storage is paged, PagedAttention-style: tokens are appended into fixed-size
// pages so that growth does not copy existing entries and so capacity
// accounting (the OOM behaviour that motivates the paper's balanced KV
// sharding and round-robin decode) is explicit and testable.
//
// Pages are refcounted so a token prefix can be shared between sequences and
// a prefix cache without copying: a Span pins a prefix of a sequence's pages,
// AdoptSpan seeds a new sequence from one, and appends to a shared (or
// partially visible) tail page copy-on-write so writers never disturb other
// holders. Physical capacity counts every live page exactly once regardless
// of how many sequences or spans reference it.
//
// The cache is a rank's only per-sequence KV store: attention reads a
// sequence's pages in place through Runs, and only the rows a ring pass ships
// to a peer are ever copied out (CopyRange).
//
// Freed pages are recycled: a page whose last holder releases it goes on the
// cache's free stack, and later appends and copy-on-write clones take the
// last page released before they cut new ones, so a served request reuses
// the pages of the requests before it instead of allocating its context
// again. The lifetime rule that makes this safe: a page is reused only after
// its last holder — a sequence or a span — releases it, and no Run (nor any
// slice of a page from Runs) may outlive the command that took it. A holder
// that keeps a run list between commands clears it first (ring's
// forgetRuns). Free pages count toward neither TotalTokens nor Capacity.
//
// Pages are cut in slabs of at least max(the pages an append needs,
// slabFloorBytes of K/V), three allocations each, when an append must open
// pages and the free stack is empty; the surplus goes on the free stack.
// Decode opens one page at a time, so the floor is what spreads a slab's
// allocations over several page boundaries. A slab is never collected:
// every page a cache cuts stays in it, held or free, so a cache's memory is
// its peak page count.
package kvcache

import (
	"fmt"
	"slices"

	"repro/internal/attention"
	"repro/internal/tensor"
)

// DefaultPageSize is the number of tokens per page when none is specified.
const DefaultPageSize = 16

// slabFloorBytes is the least K/V a fresh slab holds: 4 pages on the
// benchmark model (one KV head of 32 floats, 16-row pages, 4 KiB of K/V a
// page). A slab is three heap objects however many pages it holds, and
// decode opens one page per page boundary. decode_batch's allocs_per_tok
// (medians of seeds 1-4, 2-vCPU Xeon) read 0.502 with one-page slabs and K
// and V apart, then 0.434, 0.341, 0.296 and 0.271 at floors of 1, 2, 4 and
// 8 pages, while alloc_kb_per_tok stayed at 0.660-0.663, since decode opens
// every surplus page soon after. Past 4 pages a doubling saves a twelfth of
// what is left, yet doubles the pages cut ahead of need, so the floor is 4.
const slabFloorBytes = 16 << 10

// Config sizes a cache.
type Config struct {
	KVHeads  int // NKV
	HeadDim  int // DH
	PageSize int // tokens per page; DefaultPageSize if zero
	Capacity int // max cached tokens per rank across all sequences; 0 = unlimited
}

// Cache is one CP rank's KV store. It is not safe for concurrent use; each
// rank goroutine owns its cache exclusively, mirroring GPU-local HBM.
type Cache struct {
	cfg   Config
	seqs  map[int]*seqCache
	total int     // physical rows across unique live pages
	free  []*page // released and surplus pages, empty: a stack, the next page opened on top
	slab  int     // the fewest pages a fresh slab holds (slabFloorBytes of K/V)
}

// page is a refcounted block of PageSize KV rows: k and v are row-major
// [PageSize][NKV][DH], of which the first len(pos) rows are filled, pos
// holding their positions. refs counts the sequences and spans holding it; a
// page is freed (its rows returned to capacity, the page to the free stack)
// when refs reaches zero.
type page struct {
	k, v []float32
	pos  []int
	refs int
}

// pageRef is one holder's view of a page: the first n of its filled rows.
// n < len(pos) happens when a span or an adopting sequence pinned a prefix
// that ends mid-page.
type pageRef struct {
	pg *page
	n  int
}

// seqCache is one sequence's pages. Every ref but the last is a whole page:
// appendRow fills the tail before it opens a page, a span pins a prefix, and
// copy-on-write clones a partial tail before any append. n and maxPos are the
// visible row count and their largest position (-1 when empty), kept current
// by every append, adoption and drop so SeqLen and MaxPos are O(1).
type seqCache struct {
	refs   []pageRef
	n      int
	maxPos int
}

// ErrCapacity is returned when an append would exceed the configured
// capacity — the simulated equivalent of a rank running out of HBM. Need
// includes any copy-on-write rows the append would have to clone.
type ErrCapacity struct {
	Need, Have, Capacity int
}

func (e *ErrCapacity) Error() string {
	return fmt.Sprintf("kvcache: appending %d tokens exceeds capacity %d (have %d)",
		e.Need, e.Capacity, e.Have)
}

// New creates an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.KVHeads <= 0 || cfg.HeadDim <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive shape NKV=%d DH=%d", cfg.KVHeads, cfg.HeadDim)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.PageSize < 0 || cfg.Capacity < 0 {
		return nil, fmt.Errorf("kvcache: negative page size or capacity")
	}
	pageBytes := 2 * cfg.PageSize * cfg.KVHeads * cfg.HeadDim * 4
	slab := (slabFloorBytes + pageBytes - 1) / pageBytes
	return &Cache{cfg: cfg, seqs: make(map[int]*seqCache), slab: slab}, nil
}

// tailNeedsCOW reports whether appending through ref requires cloning its
// visible prefix first: the page still has room but is either shared with
// another holder or only partially visible to this sequence.
func (c *Cache) tailNeedsCOW(ref pageRef) bool {
	return ref.n < c.cfg.PageSize && (ref.pg.refs > 1 || ref.n < len(ref.pg.pos))
}

// AppendOverhead returns the extra physical rows the next Append for seq
// would clone for copy-on-write (0 when the tail page is exclusively owned
// or full). Capacity prechecks add it to the row count they reserve.
func (c *Cache) AppendOverhead(seq int) int {
	sc := c.seqs[seq]
	if sc == nil || len(sc.refs) == 0 {
		return 0
	}
	if ref := sc.refs[len(sc.refs)-1]; c.tailNeedsCOW(ref) {
		return ref.n
	}
	return 0
}

// Append stores k/v rows with their global positions for a sequence. The
// tensors must be [n, NKV, DH] with n == len(pos). Rows with position
// sharding.Pad (negative) are skipped: the ring algorithms generate padded
// shards but padding must never enter the persistent cache.
func (c *Cache) Append(seq int, k, v *tensor.Tensor, pos []int) error {
	if k.Tokens != v.Tokens || k.Tokens != len(pos) {
		return fmt.Errorf("kvcache: k=%d v=%d pos=%d rows disagree", k.Tokens, v.Tokens, len(pos))
	}
	if k.Heads != c.cfg.KVHeads || k.Dim != c.cfg.HeadDim || v.Heads != c.cfg.KVHeads || v.Dim != c.cfg.HeadDim {
		return fmt.Errorf("kvcache: shape %s does not match cache [%d %d]", k.ShapeString(), c.cfg.KVHeads, c.cfg.HeadDim)
	}
	real := 0
	for _, p := range pos {
		if p >= 0 {
			real++
		}
	}
	if real == 0 {
		return nil
	}
	need := real + c.AppendOverhead(seq)
	if c.cfg.Capacity > 0 && c.total+need > c.cfg.Capacity {
		return &ErrCapacity{Need: need, Have: c.total, Capacity: c.cfg.Capacity}
	}
	sc := c.seqs[seq]
	if sc == nil {
		sc = &seqCache{maxPos: -1}
		c.seqs[seq] = sc
	}
	// The pages this append opens past the tail's free rows (a copy-on-write
	// clone has the same room), plus the clone itself.
	open, clone := real, 0
	if n := len(sc.refs); n > 0 {
		open -= c.cfg.PageSize - sc.refs[n-1].n
		if c.tailNeedsCOW(sc.refs[n-1]) {
			clone = 1
		}
	}
	opened := (max(open, 0) + c.cfg.PageSize - 1) / c.cfg.PageSize
	src := pageSource{left: clone + opened}
	// The page list grows once, not by doubling in appendRow (a clone
	// replaces the tail's entry).
	sc.refs = slices.Grow(sc.refs, opened)
	for i, p := range pos {
		if p < 0 {
			continue
		}
		c.appendRow(sc, k.Row2D(i), v.Row2D(i), p, &src)
	}
	return nil
}

// pageSource hands out the pages one append opens, a copy-on-write clone
// first: recycled pages while the free stack has them, then one slab cut for
// every page still to open.
type pageSource struct {
	fresh []page // the slab's pages not yet handed out
	left  int    // pages the append has still to open
}

// open returns the next page for an append, with one reference.
func (c *Cache) open(src *pageSource) *page {
	src.left--
	if len(src.fresh) == 0 {
		if n := len(c.free); n > 0 {
			pg := c.free[n-1]
			c.free = c.free[:n-1]
			pg.refs = 1
			return pg
		}
		src.fresh = c.newPages(src.left + 1)
	}
	pg := &src.fresh[0]
	src.fresh = src.fresh[1:]
	return pg
}

// appendRow appends one row to sc's tail page, opening the next page of src
// when the tail is full.
func (c *Cache) appendRow(sc *seqCache, kRow, vRow []float32, pos int, src *pageSource) {
	sc.n++
	sc.maxPos = max(sc.maxPos, pos)
	n := len(sc.refs)
	if n == 0 || sc.refs[n-1].n == c.cfg.PageSize {
		sc.refs = append(sc.refs, pageRef{pg: c.open(src)})
		n++
	}
	ref := &sc.refs[n-1]
	if c.tailNeedsCOW(*ref) {
		c.cowTail(ref, src)
	}
	pg := ref.pg
	copy(c.row(pg.k, len(pg.pos)), kRow)
	copy(c.row(pg.v, len(pg.pos)), vRow)
	pg.pos = append(pg.pos, pos)
	ref.n++
	c.total++
}

// newPages cuts a slab of max(need, c.slab) empty pages and returns the
// first need of them, with one reference each; the rest go on the free stack
// for the next page any sequence opens. A slab is one K/V allocation (every
// page's K rows, then every page's V rows, so K and V each stay contiguous
// across the slab), one position allocation and the page headers: the pages
// an append opens past what the free stack supplies lie back to back in
// memory, so attention walking them in place streams through them as through
// one array.
func (c *Cache) newPages(need int) []page {
	ps := c.cfg.PageSize
	rows := ps * c.rowLen()
	n := max(need, c.slab)
	kv := make([]float32, 2*n*rows)
	pos := make([]int, n*ps)
	pages := make([]page, n)
	for i := range pages {
		k, v := kv[i*rows:], kv[(n+i)*rows:]
		pages[i] = page{k: k[:rows:rows], v: v[:rows:rows], pos: pos[i*ps : i*ps : (i+1)*ps]}
	}
	// Last first, as releaseAll frees.
	for i := n - 1; i >= need; i-- {
		c.free = append(c.free, &pages[i])
	}
	pages = pages[:need]
	for i := range pages {
		pages[i].refs = 1
	}
	return pages
}

// rowLen is the floats in one row of K or V.
func (c *Cache) rowLen() int { return c.cfg.KVHeads * c.cfg.HeadDim }

// row returns row i of a page's K or V storage.
func (c *Cache) row(buf []float32, i int) []float32 {
	return buf[i*c.rowLen() : (i+1)*c.rowLen()]
}

// cowTail replaces a shared or truncated tail pageRef with a private clone of
// its visible prefix, opened from src like every page the append opens, so
// the sequence can keep appending without disturbing other holders of the
// original page.
func (c *Cache) cowTail(ref *pageRef, src *pageSource) {
	clone := c.open(src)
	copy(clone.k, ref.pg.k[:ref.n*c.rowLen()])
	copy(clone.v, ref.pg.v[:ref.n*c.rowLen()])
	clone.pos = append(clone.pos, ref.pg.pos[:ref.n]...)
	c.total += ref.n
	c.releaseRef(*ref)
	ref.pg = clone
}

// releaseRef drops one holder of a page. At zero refs the page's rows leave
// the capacity count and the page, emptied, goes on the free stack.
func (c *Cache) releaseRef(ref pageRef) {
	pg := ref.pg
	pg.refs--
	if pg.refs == 0 {
		c.total -= len(pg.pos)
		pg.pos = pg.pos[:0]
		c.free = append(c.free, pg)
	}
}

// releaseAll drops one holder of each of refs, last page first, so the next
// append takes the pages back off the free stack in the order they were
// held, which for pages cut from one slab is address order.
func (c *Cache) releaseAll(refs []pageRef) {
	for i := len(refs) - 1; i >= 0; i-- {
		c.releaseRef(refs[i])
	}
}

// CopyRange copies cached rows [lo, SeqLen) of a sequence, in append order,
// into the caller's row-major buffers: k and v must hold at least
// (SeqLen-lo)*KVHeads*HeadDim floats and pos as many ints. The ring layer
// copies a sequence's rows straight into the KV block it ships to its peers.
// Returns the rows copied; lo past the end, or an unknown sequence, copies
// nothing.
func (c *Cache) CopyRange(seq, lo int, k, v []float32, pos []int) int {
	sc := c.seqs[seq]
	if sc == nil {
		return 0
	}
	rowLen := c.rowLen()
	skip := lo
	row := 0
	for _, ref := range sc.refs {
		if skip >= ref.n {
			skip -= ref.n
			continue
		}
		for i := skip; i < ref.n; i++ {
			copy(k[row*rowLen:(row+1)*rowLen], c.row(ref.pg.k, i))
			copy(v[row*rowLen:(row+1)*rowLen], c.row(ref.pg.v, i))
			pos[row] = ref.pg.pos[i]
			row++
		}
		skip = 0
	}
	return row
}

// Runs appends a sequence's visible rows to dst as one attention.Run per
// page, in append order, and returns the extended slice: the rows read in
// place, allocation-free when dst has room. Every run but the last is a whole
// page. A run's rows stay as they are until the sequence is dropped or the
// command that took the runs ends, whichever is first: appends write past
// every holder's visible rows or into a private clone, but a dropped
// sequence's pages go back to the free stack for the next append to rewrite
// (the lifetime rule in the package doc).
func (c *Cache) Runs(dst []attention.Run, seq int) []attention.Run {
	sc := c.seqs[seq]
	if sc == nil {
		return dst
	}
	rowLen := c.rowLen()
	for _, ref := range sc.refs {
		dst = append(dst, attention.Run{K: ref.pg.k[:ref.n*rowLen], V: ref.pg.v[:ref.n*rowLen], Rows: ref.n})
	}
	return dst
}

// Positions appends the global positions of a sequence's visible rows to
// dst, in append order — the KV side of a mask over its Runs.
func (c *Cache) Positions(dst []int, seq int) []int {
	sc := c.seqs[seq]
	if sc == nil {
		return dst
	}
	for _, ref := range sc.refs {
		dst = append(dst, ref.pg.pos[:ref.n]...)
	}
	return dst
}

// SeqLen returns the number of cached tokens for a sequence, in O(1).
func (c *Cache) SeqLen(seq int) int {
	if sc := c.seqs[seq]; sc != nil {
		return sc.n
	}
	return 0
}

// MaxPos returns the largest cached global position for a sequence, or -1 if
// the sequence is empty, in O(1). The ring layer guards with it: a prefill
// rejects cached rows at or past its base, and a decode query at or past every
// cached row attends them all without a mask.
func (c *Cache) MaxPos(seq int) int {
	if sc := c.seqs[seq]; sc != nil {
		return sc.maxPos
	}
	return -1
}

// TotalTokens returns the rank-wide physical cached token count: every live
// page's rows counted once, however many sequences and spans share it.
func (c *Cache) TotalTokens() int { return c.total }

// FreePages returns the pages on the free stack, which the cache still owns.
//
//cplint:allow testonly TestResidentKVIsOneCopy counts the pages a drop frees
func (c *Cache) FreePages() int { return len(c.free) }

// Capacity returns the configured token capacity (0 = unlimited).
func (c *Cache) Capacity() int { return c.cfg.Capacity }

// KVHeads returns the per-row KV head count (NKV).
func (c *Cache) KVHeads() int { return c.cfg.KVHeads }

// HeadDim returns the per-head embedding dimension (DH).
func (c *Cache) HeadDim() int { return c.cfg.HeadDim }

// Drop evicts a sequence, freeing the capacity of pages no other holder
// still references. Dropping an unknown sequence is a no-op.
func (c *Cache) Drop(seq int) {
	sc := c.seqs[seq]
	if sc == nil {
		return
	}
	c.releaseAll(sc.refs)
	delete(c.seqs, seq)
}

// ---------------------------------------------------------------------------
// Spans: refcounted prefix handles for cross-sequence KV reuse.
// ---------------------------------------------------------------------------

// Span pins the pages holding a prefix of a sequence's rows so they survive
// the sequence's eviction and can seed other sequences via AdoptSpan. A Span
// belongs to the cache that created it and must be released exactly once.
type Span struct {
	c        *Cache
	refs     []pageRef
	tokens   int
	maxPos   int // the pinned rows' largest position, -1 when none
	released bool
}

// Tokens returns the number of rows the span pins on this rank.
func (sp *Span) Tokens() int { return sp.tokens }

// Release drops the span's page references, freeing pages no sequence or
// other span still holds. Releasing twice is a no-op.
func (sp *Span) Release() {
	if sp == nil || sp.released {
		return
	}
	sp.released = true
	sp.c.releaseAll(sp.refs)
	sp.refs = nil
}

// AcquireSpan pins the rows of seq whose global position is below upTo. Those
// rows must form a prefix of the sequence's append order (true whenever upTo
// is a boundary the engine prefilled across in order); interleaved later rows
// below upTo are rejected, since adopting them would reorder KV relative to a
// cold prefill. Acquiring consumes no capacity — the pages are shared.
func (c *Cache) AcquireSpan(seq, upTo int) (*Span, error) {
	if upTo <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive span bound %d", upTo)
	}
	sp := &Span{c: c, maxPos: -1}
	sc := c.seqs[seq]
	if sc == nil {
		// A rank may legitimately hold no rows of a short prefix.
		return sp, nil
	}
	// The span holds at most the sequence's pages: one list allocation.
	sp.refs = make([]pageRef, 0, len(sc.refs))
	past := false // saw a row at or beyond upTo
	for _, ref := range sc.refs {
		take := 0
		for i := 0; i < ref.n; i++ {
			if p := ref.pg.pos[i]; p < upTo {
				if past {
					return nil, fmt.Errorf("kvcache: sequence %d rows below %d are not an append-order prefix", seq, upTo)
				}
				take++
				sp.maxPos = max(sp.maxPos, p)
			} else {
				past = true
			}
		}
		if take > 0 {
			sp.refs = append(sp.refs, pageRef{pg: ref.pg, n: take})
			sp.tokens += take
		}
	}
	// Pin only once the prefix is known good: a rejected span holds nothing.
	for _, ref := range sp.refs {
		ref.pg.refs++
	}
	return sp, nil
}

// AdoptSpan seeds an empty sequence with a span's rows by sharing its pages.
// The sequence sees exactly the span's prefix; its first append past a
// shared or mid-page tail triggers copy-on-write. Adoption consumes no
// capacity beyond the pages already resident.
func (c *Cache) AdoptSpan(seq int, sp *Span) error {
	if sp == nil || sp.released {
		return fmt.Errorf("kvcache: adopting a released span")
	}
	if sp.c != c {
		return fmt.Errorf("kvcache: span belongs to a different cache")
	}
	if sc := c.seqs[seq]; sc != nil && len(sc.refs) > 0 {
		return fmt.Errorf("kvcache: sequence %d is not empty", seq)
	}
	sc := &seqCache{refs: make([]pageRef, len(sp.refs)), n: sp.tokens, maxPos: sp.maxPos}
	copy(sc.refs, sp.refs)
	for _, ref := range sc.refs {
		ref.pg.refs++
	}
	c.seqs[seq] = sc
	return nil
}
