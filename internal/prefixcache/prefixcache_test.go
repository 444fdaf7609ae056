package prefixcache

import (
	"testing"

	"repro/internal/testsupport"
)

// testEntry records its release so tests can assert eviction ordering.
type testEntry struct {
	id       int
	released *[]int
}

func (e *testEntry) Release() { *e.released = append(*e.released, e.id) }

func mustTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func builder(released *[]int, next *int) func(depth int) (Entry, error) {
	return func(depth int) (Entry, error) {
		*next++
		return &testEntry{id: *next, released: released}, nil
	}
}

func seq(n, base int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i
	}
	return out
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{BlockSize: 0}); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := New(Config{BlockSize: 4, Capacity: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestLookupLongestAlignedPrefix(t *testing.T) {
	var released []int
	n := 0
	tr := mustTree(t, Config{BlockSize: 4})
	toks := seq(12, 0)
	if added, err := tr.Insert(toks, builder(&released, &n)); err != nil || added != 12 {
		t.Fatalf("insert: added=%d err=%v", added, err)
	}
	// Full prompt match is capped below len: 12 cached, prompt 12 → hit 8.
	if hit, _ := tr.Lookup(toks); hit != 8 {
		t.Fatalf("full-prompt hit = %d, want 8 (capped below prompt length)", hit)
	}
	// Longer prompt sharing the whole cached prefix hits all 12.
	if hit, entry := tr.Lookup(seq(20, 0)); hit != 12 || entry == nil {
		t.Fatalf("long-prompt hit = %d, want 12", hit)
	}
	// Prefix sharing only the first block.
	p := seq(12, 0)
	p[5] = 99
	if hit, _ := tr.Lookup(p); hit != 4 {
		t.Fatalf("diverging-prompt hit = %d, want 4", hit)
	}
	// Exactness: same length, different first token → no hit.
	p2 := seq(12, 0)
	p2[0] = 99
	if hit, _ := tr.Lookup(p2); hit != 0 {
		t.Fatalf("mismatched-prompt hit = %d, want 0", hit)
	}
	// Short prompts can never hit (sub-block).
	if hit, _ := tr.Lookup(seq(3, 0)); hit != 0 {
		t.Fatalf("sub-block hit = %d, want 0", hit)
	}
}

func TestInsertSkipsExistingBlocks(t *testing.T) {
	var released []int
	n := 0
	tr := mustTree(t, Config{BlockSize: 4})
	if _, err := tr.Insert(seq(8, 0), builder(&released, &n)); err != nil {
		t.Fatal(err)
	}
	// Re-inserting a longer sequence sharing the prefix only builds the new
	// deeper block; the tail below a block boundary is never inserted.
	added, err := tr.Insert(seq(14, 0), builder(&released, &n))
	if err != nil || added != 4 {
		t.Fatalf("extend: added=%d err=%v", added, err)
	}
	st := tr.Stats()
	if st.Nodes != 3 || st.Tokens != 12 {
		t.Fatalf("stats = %+v, want 3 nodes / 12 tokens", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	var released []int
	n := 0
	// Room for exactly two branches of one block each plus the shared root
	// block: 3 blocks of 4 tokens.
	tr := mustTree(t, Config{BlockSize: 4, Capacity: 12})
	shared := seq(4, 0)
	a := append(append([]int{}, shared...), seq(4, 100)...)
	b := append(append([]int{}, shared...), seq(4, 200)...)
	if _, err := tr.Insert(a, builder(&released, &n)); err != nil { // entries 1 (shared), 2 (a)
		t.Fatal(err)
	}
	if _, err := tr.Insert(b, builder(&released, &n)); err != nil { // entry 3 (b)
		t.Fatal(err)
	}
	// Touch branch a so b becomes the LRU leaf.
	tr.Lookup(append(append([]int{}, a...), 9))
	// Inserting a third branch exceeds capacity: the LRU leaf (b) goes
	// first — never the shared interior block, which still has children.
	cTok := append(append([]int{}, shared...), seq(4, 300)...)
	if _, err := tr.Insert(cTok, builder(&released, &n)); err != nil { // entry 4 (c)
		t.Fatal(err)
	}
	if len(released) != 1 || released[0] != 3 {
		t.Fatalf("released = %v, want [3] (LRU leaf b)", released)
	}
	if hit, _ := tr.Lookup(append(append([]int{}, a...), 9)); hit != 8 {
		t.Fatalf("survivor a hit = %d, want 8", hit)
	}
	st := tr.Stats()
	if st.Evictions != 1 || st.EvictedTokens != 4 || st.Tokens != 12 {
		t.Fatalf("stats after eviction = %+v", st)
	}
}

func TestEvictTokensDrainsLeavesFirst(t *testing.T) {
	var released []int
	n := 0
	tr := mustTree(t, Config{BlockSize: 2})
	if _, err := tr.Insert(seq(6, 0), builder(&released, &n)); err != nil { // entries 1,2,3
		t.Fatal(err)
	}
	if freed := tr.EvictTokens(3); freed != 4 {
		t.Fatalf("freed = %d, want 4 (two blocks)", freed)
	}
	// Leaves evict deepest-LRU first: 3 then 2; the root block survives.
	if len(released) != 2 || released[0] != 3 || released[1] != 2 {
		t.Fatalf("released = %v, want [3 2]", released)
	}
	if tr.Stats().Tokens != 2 {
		t.Fatalf("tokens = %d, want 2", tr.Stats().Tokens)
	}
	tr.Clear()
	if tr.Stats().Tokens != 0 || len(released) != 3 {
		t.Fatalf("clear left tokens=%d released=%v", tr.Stats().Tokens, released)
	}
}

func TestStatsCounters(t *testing.T) {
	var released []int
	n := 0
	tr := mustTree(t, Config{BlockSize: 4, Capacity: 100})
	tr.Lookup(seq(8, 0)) // miss
	if _, err := tr.Insert(seq(8, 0), builder(&released, &n)); err != nil {
		t.Fatal(err)
	}
	tr.Lookup(seq(10, 0)) // hit 8
	st := tr.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.HitTokens != 8 || st.MissTokens != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.InsertedTokens != 8 || st.BlockSize != 4 || st.Capacity != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if r := float64(st.HitTokens) / float64(st.HitTokens+st.MissTokens); r <= 0.4 || r >= 0.5 {
		t.Fatalf("hit rate = %v, want 8/18", r)
	}
}

// A warm lookup and an insert over an existing path build each block's key in
// the tree's buffer and index the children map with it without copying, so
// neither allocates; only a new node owns a key string.
func TestWarmLookupAndInsertAllocateNothing(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	var released []int
	n := 0
	tr := mustTree(t, Config{BlockSize: 4})
	toks := seq(13, 100)
	build := builder(&released, &n)
	if added, err := tr.Insert(toks, build); err != nil || added != 12 {
		t.Fatalf("insert: added=%d err=%v", added, err)
	}
	if hit, _ := tr.Lookup(toks); hit != 12 {
		t.Fatalf("warm hit = %d, want 12", hit)
	}
	if a := testing.AllocsPerRun(100, func() { tr.Lookup(toks) }); a != 0 {
		t.Fatalf("a warm 3-block lookup allocates %v objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := tr.Insert(toks, build); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("an insert over an existing path allocates %v objects, want 0", a)
	}
	if n != 3 {
		t.Fatalf("re-inserting built %d entries, want the first insert's 3", n)
	}
}

// Block keys are exact content: blocks whose decimal digits concatenate alike,
// id 0 and negative ids each get their own node and their own hit.
func TestBlockKeysAreInjective(t *testing.T) {
	var released []int
	n := 0
	tr := mustTree(t, Config{BlockSize: 2})
	blocks := [][]int{{1, 23}, {12, 3}, {0, 0}, {0, -1}, {-1, 0}, {-1, -1}, {1, -23}, {-12, 3}, {1 << 40, 0}, {0, 1 << 40}}
	for _, b := range blocks {
		if added, err := tr.Insert(b, builder(&released, &n)); err != nil || added != 2 {
			t.Fatalf("insert %v: added=%d err=%v (a key collided with an earlier block)", b, added, err)
		}
	}
	if got := tr.Stats().Nodes; got != len(blocks) {
		t.Fatalf("%d nodes for %d distinct blocks", got, len(blocks))
	}
	for _, b := range blocks {
		if hit, _ := tr.Lookup(append(b, 7)); hit != 2 {
			t.Fatalf("lookup %v: hit %d, want 2", b, hit)
		}
	}
	if hit, _ := tr.Lookup([]int{1, 2, 3, 7}); hit != 0 {
		t.Fatalf("an uncached block hit %d tokens", hit)
	}
}
