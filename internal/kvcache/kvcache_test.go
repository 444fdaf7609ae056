package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// get materializes a sequence's cached K, V and positions as contiguous
// tensors, in append order.
func get(c *Cache, seq int) (k, v *tensor.Tensor, pos []int) {
	n := c.SeqLen(seq)
	k, v = tensor.New(n, c.KVHeads(), c.HeadDim()), tensor.New(n, c.KVHeads(), c.HeadDim())
	pos = make([]int, n)
	c.CopyRange(seq, 0, k.Data, v.Data, pos)
	return k, v, pos
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{KVHeads: 0, HeadDim: 4}); err == nil {
		t.Fatal("zero KV heads accepted")
	}
	if _, err := New(Config{KVHeads: 2, HeadDim: 4, Capacity: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 2, HeadDim: 3, PageSize: 4})
	rng := rand.New(rand.NewSource(1))
	k := tensor.RandN(rng, 5, 2, 3)
	v := tensor.RandN(rng, 5, 2, 3)
	pos := []int{0, 1, 6, 7, 9}
	if err := c.Append(7, k, v, pos); err != nil {
		t.Fatal(err)
	}
	gk, gv, gpos := get(c, 7)
	if tensor.MaxAbsDiff(gk, k) != 0 || tensor.MaxAbsDiff(gv, v) != 0 {
		t.Fatal("Get returned different tensors than appended")
	}
	for i, p := range pos {
		if gpos[i] != p {
			t.Fatalf("positions = %v, want %v", gpos, pos)
		}
	}
}

func TestAppendSkipsPaddingRows(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 2})
	k := tensor.New(4, 1, 2)
	v := tensor.New(4, 1, 2)
	k.Row(2, 0)[0] = 5
	if err := c.Append(0, k, v, []int{0, -1, 3, -1}); err != nil {
		t.Fatal(err)
	}
	if got := c.SeqLen(0); got != 2 {
		t.Fatalf("SeqLen = %d, want 2 (padding skipped)", got)
	}
	gk, _, gpos := get(c, 0)
	if gpos[0] != 0 || gpos[1] != 3 {
		t.Fatalf("positions = %v, want [0 3]", gpos)
	}
	if gk.Row(1, 0)[0] != 5 {
		t.Fatal("kept wrong rows")
	}
}

func TestAppendShapeValidation(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 2, HeadDim: 3})
	k := tensor.New(2, 2, 3)
	vBad := tensor.New(3, 2, 3)
	if err := c.Append(0, k, vBad, []int{0, 1}); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	vWrong := tensor.New(2, 1, 3)
	if err := c.Append(0, k, vWrong, []int{0, 1}); err == nil {
		t.Fatal("head mismatch accepted")
	}
	if err := c.Append(0, k, tensor.New(2, 2, 3), []int{0}); err == nil {
		t.Fatal("pos length mismatch accepted")
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, Capacity: 3})
	mk := func(n int) (*tensor.Tensor, *tensor.Tensor, []int) {
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		return tensor.New(n, 1, 1), tensor.New(n, 1, 1), pos
	}
	k, v, pos := mk(2)
	if err := c.Append(0, k, v, pos); err != nil {
		t.Fatal(err)
	}
	k, v, pos = mk(2)
	err := c.Append(1, k, v, pos)
	var ce *ErrCapacity
	if !errors.As(err, &ce) {
		t.Fatalf("expected ErrCapacity, got %v", err)
	}
	if ce.Need != 2 || ce.Have != 2 || ce.Capacity != 3 {
		t.Fatalf("ErrCapacity fields = %+v", ce)
	}
	// Padding rows don't count against capacity.
	k1 := tensor.New(2, 1, 1)
	if err := c.Append(1, k1, tensor.New(2, 1, 1), []int{5, -1}); err != nil {
		t.Fatalf("padding counted against capacity: %v", err)
	}
	if c.TotalTokens() != 3 {
		t.Fatalf("TotalTokens = %d, want 3", c.TotalTokens())
	}
}

func TestPaging(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, PageSize: 3})
	for i := 0; i < 7; i++ {
		k := tensor.New(1, 1, 1)
		k.Row(0, 0)[0] = float32(i)
		if err := c.Append(0, k, tensor.New(1, 1, 1), []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Runs(nil, 0)); got != 3 { // ceil(7/3)
		t.Fatalf("%d pages, want 3", got)
	}
	gk, _, gpos := get(c, 0)
	for i := 0; i < 7; i++ {
		if gk.Row(i, 0)[0] != float32(i) || gpos[i] != i {
			t.Fatalf("paged contents wrong at %d: %v %v", i, gk.Row(i, 0)[0], gpos[i])
		}
	}
}

func TestMaxPos(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1})
	if c.MaxPos(0) != -1 {
		t.Fatal("empty MaxPos should be -1")
	}
	k := tensor.New(3, 1, 1)
	if err := c.Append(0, k, tensor.New(3, 1, 1), []int{4, 9, 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.MaxPos(0); got != 9 {
		t.Fatalf("MaxPos = %d, want 9", got)
	}
}

func TestDropFreesCapacity(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, Capacity: 2})
	k := tensor.New(2, 1, 1)
	if err := c.Append(3, k, tensor.New(2, 1, 1), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	c.Drop(3)
	c.Drop(99) // no-op
	if c.TotalTokens() != 0 {
		t.Fatalf("TotalTokens after drop = %d", c.TotalTokens())
	}
	if err := c.Append(4, k, tensor.New(2, 1, 1), []int{0, 1}); err != nil {
		t.Fatalf("capacity not freed by Drop: %v", err)
	}
}

func TestGetUnknownSequenceEmpty(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 2, HeadDim: 2})
	k, v, pos := get(c, 42)
	if k.Tokens != 0 || v.Tokens != 0 || len(pos) != 0 {
		t.Fatal("unknown sequence should be empty")
	}
}

// Property: appending in multiple slices equals appending all at once —
// cache contents depend only on the concatenation.
func TestPropertyAppendSliceInvariance(t *testing.T) {
	f := func(seed int64, rawN, rawCut uint8) bool {
		n := int(rawN%12) + 1
		cut := int(rawCut) % (n + 1)
		rng := rand.New(rand.NewSource(seed))
		k := tensor.RandN(rng, n, 2, 2)
		v := tensor.RandN(rng, n, 2, 2)
		pos := rng.Perm(n * 2)[:n]

		one, _ := New(Config{KVHeads: 2, HeadDim: 2, PageSize: 3})
		if err := one.Append(0, k, v, pos); err != nil {
			return false
		}
		two, _ := New(Config{KVHeads: 2, HeadDim: 2, PageSize: 3})
		if err := two.Append(0, k.SliceTokens(0, cut), v.SliceTokens(0, cut), pos[:cut]); err != nil {
			return false
		}
		if err := two.Append(0, k.SliceTokens(cut, n), v.SliceTokens(cut, n), pos[cut:]); err != nil {
			return false
		}
		k1, v1, p1 := get(one, 0)
		k2, v2, p2 := get(two, 0)
		if tensor.MaxAbsDiff(k1, k2) != 0 || tensor.MaxAbsDiff(v1, v2) != 0 {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: TotalTokens equals the sum of SeqLens for any append pattern.
func TestPropertyTotalMatchesSum(t *testing.T) {
	f := func(seed int64, rawOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, _ := New(Config{KVHeads: 1, HeadDim: 1, PageSize: 2})
		ops := int(rawOps%10) + 1
		for i := 0; i < ops; i++ {
			seq := rng.Intn(3)
			n := rng.Intn(4) + 1
			pos := make([]int, n)
			for j := range pos {
				pos[j] = rng.Intn(100)
			}
			if err := c.Append(seq, tensor.New(n, 1, 1), tensor.New(n, 1, 1), pos); err != nil {
				return false
			}
			if rng.Intn(4) == 0 {
				c.Drop(rng.Intn(3))
			}
		}
		sum := 0
		for s := range 3 {
			sum += c.SeqLen(s)
		}
		return sum == c.TotalTokens()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func seqPos(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// --- Span sharing, copy-on-write, and pinned-page eviction ordering. ---

func fill(t *testing.T, c *Cache, seq, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := tensor.New(1, 1, 1)
		k.Row(0, 0)[0] = float32(seq*100 + i)
		if err := c.Append(seq, k, tensor.New(1, 1, 1), []int{i}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpanSurvivesDonorDrop(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, PageSize: 2})
	fill(t, c, 0, 6)
	sp, err := c.AcquireSpan(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Tokens() != 4 {
		t.Fatalf("span tokens = %d, want 4", sp.Tokens())
	}
	// Dropping the donor must not free the pinned pages: the span holds
	// pages [0,4); only the donor-exclusive tail page [4,6) is freed.
	c.Drop(0)
	if got := c.TotalTokens(); got != 4 {
		t.Fatalf("TotalTokens after donor drop = %d, want 4 (span pins pages)", got)
	}
	if err := c.AdoptSpan(7, sp); err != nil {
		t.Fatal(err)
	}
	gk, _, gpos := get(c, 7)
	if gk.Tokens != 4 {
		t.Fatalf("adopted rows = %d, want 4", gk.Tokens)
	}
	for i := 0; i < 4; i++ {
		if gk.Row(i, 0)[0] != float32(i) || gpos[i] != i {
			t.Fatalf("adopted row %d = (%v,%d)", i, gk.Row(i, 0)[0], gpos[i])
		}
	}
	// Adoption shares pages: no physical growth.
	if got := c.TotalTokens(); got != 4 {
		t.Fatalf("TotalTokens after adopt = %d, want 4", got)
	}
	// Release ordering: span release alone keeps pages (sequence 7 holds
	// them); dropping 7 afterwards frees everything.
	sp.Release()
	sp.Release() // double release is a no-op
	if got := c.TotalTokens(); got != 4 {
		t.Fatalf("TotalTokens after span release = %d, want 4 (seq 7 holds pages)", got)
	}
	c.Drop(7)
	if got := c.TotalTokens(); got != 0 {
		t.Fatalf("TotalTokens after last holder drop = %d, want 0", got)
	}
}

func TestAdoptCopyOnWrite(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, PageSize: 4})
	fill(t, c, 0, 4)               // one full page
	sp, err := c.AcquireSpan(0, 3) // mid-page boundary
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptSpan(1, sp); err != nil {
		t.Fatal(err)
	}
	if got := c.SeqLen(1); got != 3 {
		t.Fatalf("adopted SeqLen = %d, want 3", got)
	}
	// Appending through the shared, truncated tail page must copy-on-write:
	// the donor's fourth row stays intact.
	k := tensor.New(1, 1, 1)
	k.Row(0, 0)[0] = 999
	if err := c.Append(1, k, tensor.New(1, 1, 1), []int{3}); err != nil {
		t.Fatal(err)
	}
	dk, _, _ := get(c, 0)
	if dk.Row(3, 0)[0] != 3 {
		t.Fatalf("donor row clobbered: %v", dk.Row(3, 0)[0])
	}
	ak, _, apos := get(c, 1)
	if ak.Row(3, 0)[0] != 999 || apos[3] != 3 {
		t.Fatalf("adopter row = (%v,%d), want (999,3)", ak.Row(3, 0)[0], apos[3])
	}
	// Physical accounting: donor page (4) + COW clone page (4 rows: 3
	// cloned + 1 appended).
	if got := c.TotalTokens(); got != 8 {
		t.Fatalf("TotalTokens after COW = %d, want 8", got)
	}
}

func TestAcquireSpanRejectsInterleavedRows(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1})
	// Append order 0,1,5 then 2: rows below 3 are not an append-order
	// prefix, so a span at 3 would reorder KV relative to a cold prefill.
	k := tensor.New(3, 1, 1)
	if err := c.Append(0, k, tensor.New(3, 1, 1), []int{0, 1, 5}); err != nil {
		t.Fatal(err)
	}
	k1 := tensor.New(1, 1, 1)
	if err := c.Append(0, k1, tensor.New(1, 1, 1), []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AcquireSpan(0, 3); err == nil {
		t.Fatal("interleaved rows accepted as a span prefix")
	}
	// A boundary past every row is fine.
	if sp, err := c.AcquireSpan(0, 6); err != nil || sp.Tokens() != 4 {
		t.Fatalf("full span: %v tokens=%d", err, sp.Tokens())
	}
}

func TestAdoptSpanValidation(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1})
	c2 := mustNew(t, Config{KVHeads: 1, HeadDim: 1})
	fill(t, c, 0, 2)
	sp, err := c.AcquireSpan(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.AdoptSpan(1, sp); err == nil {
		t.Fatal("cross-cache adoption accepted")
	}
	if err := c.AdoptSpan(0, sp); err == nil {
		t.Fatal("adoption onto a non-empty sequence accepted")
	}
	sp.Release()
	if err := c.AdoptSpan(1, sp); err == nil {
		t.Fatal("released span adopted")
	}
	if _, err := c.AcquireSpan(0, 0); err == nil {
		t.Fatal("zero-bound span accepted")
	}
	// A rank legitimately holding no rows of a short prefix yields an
	// empty span.
	if sp, err := c.AcquireSpan(99, 4); err != nil || sp.Tokens() != 0 {
		t.Fatalf("empty-rank span: %v tokens=%d", err, sp.Tokens())
	}
}

func TestCapacityCountsSharedPagesOnce(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, PageSize: 2, Capacity: 6})
	fill(t, c, 0, 4)
	sp, err := c.AcquireSpan(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Three adopters share the same 4 physical tokens.
	for _, seq := range []int{1, 2, 3} {
		if err := c.AdoptSpan(seq, sp); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.TotalTokens(); got != 4 {
		t.Fatalf("TotalTokens with 4 holders = %d, want 4", got)
	}
	// Appends still fit: page-aligned tails append in place (no COW).
	k := tensor.New(1, 1, 1)
	if err := c.Append(0, k, tensor.New(1, 1, 1), []int{4}); err == nil {
		// seq 0's tail page is shared with the span and adopters... but
		// page [2,4) is full, so a fresh page is opened: 4+1 <= 6 fits.
		if c.TotalTokens() != 5 {
			t.Fatalf("TotalTokens = %d, want 5", c.TotalTokens())
		}
	} else {
		t.Fatal(err)
	}
	// The next append opens another page for seq 1 and hits the cap.
	var ce *ErrCapacity
	if err := c.Append(1, k, tensor.New(1, 1, 1), []int{4}); err != nil {
		t.Fatalf("append within capacity failed: %v", err)
	}
	if err := c.Append(2, k, tensor.New(1, 1, 1), []int{4}); !errors.As(err, &ce) {
		t.Fatalf("expected ErrCapacity, got %v", err)
	}
}

func TestAppendOverheadReportsCOW(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 1, PageSize: 4})
	fill(t, c, 0, 3)
	if got := c.AppendOverhead(0); got != 0 {
		t.Fatalf("owned tail overhead = %d, want 0", got)
	}
	sp, err := c.AcquireSpan(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Release()
	// The tail page is now shared with the span: the next append clones 3
	// rows first.
	if got := c.AppendOverhead(0); got != 3 {
		t.Fatalf("shared tail overhead = %d, want 3", got)
	}
}

// checkView holds a sequence's run view to the scan over its rows (Get):
// every run but the last is a whole page, the runs read back to back are the
// sequence's K and V rows, and SeqLen and MaxPos equal the scan's row count
// and largest position.
func checkView(t *testing.T, c *Cache, seq int, what string) {
	t.Helper()
	gk, gv, gpos := get(c, seq)
	runs := c.Runs(nil, seq)
	rowLen := c.KVHeads() * c.HeadDim()
	var k, v []float32
	for i, r := range runs {
		if i < len(runs)-1 && r.Rows != c.cfg.PageSize {
			t.Fatalf("%s: sequence %d run %d of %d holds %d rows, only the tail may hold fewer than %d",
				what, seq, i, len(runs), r.Rows, c.cfg.PageSize)
		}
		k, v = append(k, r.K[:r.Rows*rowLen]...), append(v, r.V[:r.Rows*rowLen]...)
	}
	if !slices.Equal(k, gk.Data) || !slices.Equal(v, gv.Data) {
		t.Fatalf("%s: sequence %d runs read %d/%d floats that differ from its %d rows", what, seq, len(k), len(v), gk.Tokens)
	}
	if pos := c.Positions(nil, seq); !slices.Equal(pos, gpos) {
		t.Fatalf("%s: sequence %d positions %v, scan %v", what, seq, pos, gpos)
	}
	maxPos := -1
	for _, p := range gpos {
		maxPos = max(maxPos, p)
	}
	if c.SeqLen(seq) != len(gpos) || c.MaxPos(seq) != maxPos {
		t.Fatalf("%s: sequence %d SeqLen %d MaxPos %d, scan %d and %d", what, seq, c.SeqLen(seq), c.MaxPos(seq), len(gpos), maxPos)
	}
}

// Only a sequence's tail page can be partial, because copy-on-write clones a
// partial tail before any append: an adopter of a span that ends mid-page
// sees whole pages and one partial tail, keeps doing so as its appends clone
// that tail, and still does once the donor is gone.
func TestRunsOnlyTailPartial(t *testing.T) {
	c := mustNew(t, Config{KVHeads: 1, HeadDim: 2, PageSize: 4})
	fill2 := func(seq, from, n int) {
		for i := from; i < from+n; i++ {
			k := tensor.New(1, 1, 2)
			k.Row(0, 0)[1] = float32(seq*1000 + i)
			if err := c.Append(seq, k, tensor.New(1, 1, 2), []int{i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill2(0, 0, 11)
	checkView(t, c, 0, "donor")
	sp, err := c.AcquireSpan(0, 6) // mid-page: pages [0,4) and [4,6) of [4,8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptSpan(1, sp); err != nil {
		t.Fatal(err)
	}
	sp.Release()
	checkView(t, c, 1, "adopted mid-page span")
	fill2(1, 6, 1)
	checkView(t, c, 1, "copy-on-write tail")
	checkView(t, c, 0, "donor after the adopter's copy-on-write")
	fill2(1, 7, 6)
	checkView(t, c, 1, "appends past the cloned tail")
	c.Drop(0)
	checkView(t, c, 1, "donor dropped")
	if n := len(c.Runs(nil, 0)); n != 0 {
		t.Fatalf("a dropped sequence has %d runs", n)
	}
}

// Property: SeqLen and MaxPos, kept in O(1), equal the scan over a
// sequence's rows, and only its tail page is partial, after every step of
// random appends (positions rising with gaps, now and then out of order),
// span acquisitions, adoptions into fresh sequences, the copy-on-write
// appends those cause, span releases and drops, at page sizes 1, 3 and 16.
func TestPropertySeqLenMaxPosMatchScan(t *testing.T) {
	for _, pageSize := range []int{1, 3, 16} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := mustNew(t, Config{KVHeads: 2, HeadDim: 1, PageSize: pageSize})
			next := map[int]int{}
			var spans []*Span
			for step := 0; step < 40; step++ {
				seq := rng.Intn(5)
				switch op := rng.Intn(10); {
				case op < 5:
					n := rng.Intn(2*pageSize+2) + 1
					pos := make([]int, n)
					for i := range pos {
						next[seq] += rng.Intn(3)
						pos[i] = next[seq]
						if rng.Intn(8) == 0 {
							pos[i] = rng.Intn(next[seq] + 1)
						}
						next[seq]++
					}
					if err := c.Append(seq, tensor.RandN(rng, n, 2, 1), tensor.RandN(rng, n, 2, 1), pos); err != nil {
						t.Fatal(err)
					}
				case op < 7:
					if sp, err := c.AcquireSpan(seq, rng.Intn(next[seq]+1)+1); err == nil {
						spans = append(spans, sp)
					}
				case op < 8 && len(spans) > 0:
					if c.SeqLen(seq) == 0 {
						if err := c.AdoptSpan(seq, spans[rng.Intn(len(spans))]); err != nil {
							t.Fatal(err)
						}
					}
				case op < 9 && len(spans) > 0:
					i := rng.Intn(len(spans))
					spans[i].Release()
					spans = slices.Delete(spans, i, i+1)
				default:
					c.Drop(seq)
					delete(next, seq)
				}
				for s := 0; s < 5; s++ {
					checkView(t, c, s, fmt.Sprintf("page size %d seed %d step %d", pageSize, seed, step))
				}
			}
			// Every page comes back once its last holder lets go, rejected
			// span acquisitions included.
			for _, sp := range spans {
				sp.Release()
			}
			for s := 0; s < 5; s++ {
				c.Drop(s)
			}
			if n := c.TotalTokens(); n != 0 {
				t.Fatalf("page size %d seed %d: %d rows still held with no holder left", pageSize, seed, n)
			}
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	}
}
