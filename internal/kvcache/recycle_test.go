package kvcache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/attention"
	"repro/internal/tensor"
	"repro/internal/testsupport"
)

// poisonFree fills the K and V of every page on c's free stack with NaN and
// returns the set of those pages.
func poisonFree(c *Cache) map[*page]bool {
	set := make(map[*page]bool, len(c.free))
	for _, pg := range c.free {
		for i := range pg.k {
			pg.k[i], pg.v[i] = float32(math.NaN()), float32(math.NaN())
		}
		set[pg] = true
	}
	return set
}

// recycleScript builds sequences 7 and 8 in c: appends of several sizes with
// padding rows among them, a span of 7 that ends mid-page, adopted by 8,
// whose first append clones the partial tail (copy-on-write), and one-row
// appends to both after that.
func recycleScript(t *testing.T, c *Cache, rng *rand.Rand) {
	t.Helper()
	at := 0
	appendRows := func(seq int, n int, withPad bool) {
		k := tensor.RandN(rng, n, c.KVHeads(), c.HeadDim())
		v := tensor.RandN(rng, n, c.KVHeads(), c.HeadDim())
		pos := make([]int, n)
		for i := range pos {
			pos[i] = at
			at++
			if withPad && i%3 == 1 {
				pos[i] = -1
			}
		}
		if err := c.Append(seq, k, v, pos); err != nil {
			t.Fatal(err)
		}
	}
	appendRows(7, 5, true)
	appendRows(7, 30, false)
	for range 3 {
		appendRows(7, 1, false)
	}
	sp, err := c.AcquireSpan(7, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Release()
	if err := c.AdoptSpan(8, sp); err != nil {
		t.Fatal(err)
	}
	appendRows(8, 9, true)
	appendRows(7, 1, false)
	appendRows(8, 1, false)
}

// A sequence built on recycled pages reads back exactly as one built in a
// fresh cache, although every free page it draws from was filled with NaN:
// Runs, CopyRange and Positions expose only the rows a holder wrote, and the
// decode kernel over the recycled runs is bitwise the fresh one's. The free
// pages are either released ones (earlier traffic, all dropped) or a
// slab's surplus, whose slab-mate a live sequence still holds. A collection
// between the poisoning and the script takes none of them back.
func TestRecycledPagesReadBackAsFresh(t *testing.T) {
	cfg := Config{KVHeads: 2, HeadDim: 3, PageSize: 4}
	for _, tc := range []struct {
		name    string
		earlier func(t *testing.T, used *Cache) // fills used's free stack
	}{
		{"released", releasedTraffic},
		{"surplus", surplusTraffic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			used, fresh := mustNew(t, cfg), mustNew(t, cfg)
			tc.earlier(t, used)
			held := used.TotalTokens()
			heldK, heldV, heldPos := get(used, 0)
			poisoned := poisonFree(used)
			if len(poisoned) == 0 {
				t.Fatal("no page reached the free stack")
			}
			runtime.GC()
			if len(used.free) != len(poisoned) {
				t.Fatalf("%d pages on the free stack after a collection, %d before", len(used.free), len(poisoned))
			}
			recycleScript(t, used, rand.New(rand.NewSource(9)))
			recycleScript(t, fresh, rand.New(rand.NewSource(9)))
			readsAsFresh(t, cfg, used, fresh, poisoned, held)
			// What the earlier traffic still holds is untouched.
			gk, gv, gpos := get(used, 0)
			sameBits(t, "held sequence K", gk.Data, heldK.Data)
			sameBits(t, "held sequence V", gv.Data, heldV.Data)
			sameInts(t, "held sequence positions", gpos, heldPos)
		})
	}
}

// surplusTraffic appends one row to sequence 0 of an empty cache: the page it
// opens comes from a fresh slab, whose other pages go on the free stack.
func surplusTraffic(t *testing.T, used *Cache) {
	rng := rand.New(rand.NewSource(6))
	k, v := tensor.RandN(rng, 1, used.KVHeads(), used.HeadDim()), tensor.RandN(rng, 1, used.KVHeads(), used.HeadDim())
	if err := used.Append(0, k, v, []int{0}); err != nil {
		t.Fatal(err)
	}
	if used.TotalTokens() != 1 {
		t.Fatalf("TotalTokens = %d after a one-row append beside a slab's surplus pages", used.TotalTokens())
	}
}

// releasedTraffic runs sequences and a span adopted and copied on write
// through used, and releases them all again.
func releasedTraffic(t *testing.T, used *Cache) {
	rng := rand.New(rand.NewSource(5))
	for seq, n := range []int{37, 20, 9} {
		k, v := tensor.RandN(rng, n, 2, 3), tensor.RandN(rng, n, 2, 3)
		if err := used.Append(seq, k, v, seqPos(n)); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := used.AcquireSpan(0, 18)
	if err != nil {
		t.Fatal(err)
	}
	if err := used.AdoptSpan(3, sp); err != nil {
		t.Fatal(err)
	}
	k, v := tensor.RandN(rng, 2, 2, 3), tensor.RandN(rng, 2, 2, 3)
	if err := used.Append(3, k, v, []int{18, 19}); err != nil {
		t.Fatal(err)
	}
	for seq := range 4 {
		used.Drop(seq)
	}
	sp.Release()
	if used.TotalTokens() != 0 {
		t.Fatalf("TotalTokens = %d after every holder let go", used.TotalTokens())
	}
}

// readsAsFresh checks that sequences 7 and 8, built by recycleScript in used
// (drawing on the poisoned free pages, beside held rows of earlier traffic)
// and in fresh, read back the same.
func readsAsFresh(t *testing.T, cfg Config, used, fresh *Cache, poisoned map[*page]bool, held int) {
	t.Helper()
	reused := 0
	attn := new(attention.Scratch)
	for _, seq := range []int{7, 8} {
		for _, ref := range used.seqs[seq].refs {
			if poisoned[ref.pg] {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatal("the script took no page off the free stack")
	}
	if used.TotalTokens()-held != fresh.TotalTokens() {
		t.Fatalf("TotalTokens %d on recycled pages beside %d held rows, %d fresh", used.TotalTokens(), held, fresh.TotalTokens())
	}
	for _, seq := range []int{7, 8} {
		what := fmt.Sprintf("sequence %d", seq)
		gk, gv, gpos := get(used, seq)
		wk, wv, wpos := get(fresh, seq)
		sameBits(t, what+" CopyRange K", gk.Data, wk.Data)
		sameBits(t, what+" CopyRange V", gv.Data, wv.Data)
		sameInts(t, what+" CopyRange positions", gpos, wpos)
		sameInts(t, what+" Positions", used.Positions(nil, seq), fresh.Positions(nil, seq))
		gr, wr := used.Runs(nil, seq), fresh.Runs(nil, seq)
		if len(gr) != len(wr) {
			t.Fatalf("%s: %d runs on recycled pages, %d fresh", what, len(gr), len(wr))
		}
		for i := range gr {
			if gr[i].Rows != wr[i].Rows {
				t.Fatalf("%s run %d: %d rows on recycled pages, %d fresh", what, i, gr[i].Rows, wr[i].Rows)
			}
			sameBits(t, fmt.Sprintf("%s run %d K", what, i), gr[i].K, wr[i].K)
			sameBits(t, fmt.Sprintf("%s run %d V", what, i), gr[i].V, wr[i].V)
		}
		q := tensor.RandN(rand.New(rand.NewSource(int64(seq))), 1, 2*cfg.KVHeads, cfg.HeadDim)
		decode := func(runs []attention.Run) *attention.Output {
			out := new(attention.Output).Fit(1, q.Heads, q.Dim)
			if err := attention.DecodeKVInto(out, q, attention.KV{Heads: cfg.KVHeads, Dim: cfg.HeadDim, Runs: runs}, 0, attn); err != nil {
				t.Fatal(err)
			}
			return out
		}
		g, w := decode(gr), decode(wr)
		sameBits(t, what+" decode output", g.O.Data, w.O.Data)
		for i := range g.LSE {
			if math.Float64bits(g.LSE[i]) != math.Float64bits(w.LSE[i]) {
				t.Fatalf("%s decode LSE %d: %v on recycled pages, %v fresh", what, i, g.LSE[i], w.LSE[i])
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: float %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sameInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %d, want %d", what, i, got[i], want[i])
		}
	}
}

// modelRow is one cached row as the churn test's model holds it.
type modelRow struct {
	pos  int
	k, v []float32
}

// modelSpan is a live span and the rows it must read back.
type modelSpan struct {
	sp   *Span
	rows []modelRow
}

// Seeded random churn — appends (padding rows among them), copy-on-write of
// shared and partly visible tails, AcquireSpan, AdoptSpan, Drop and Release —
// checked against a plain map model after every operation: each live
// sequence and span reads back its own rows, every page's refcount equals
// its holders, TotalTokens counts each held page once, and the free stack
// holds exactly the pages the cache has cut that nothing holds, with the
// last one freed on top: a drop or release pushes the pages it frees, last
// page first, and an append's first page-open takes the top. Collections
// at random operations take no page back. Recycling turns a refcount slip
// into a neighbour's corrupted rows, which the first check catches. The
// one-row case is decode's traffic: every append is one row to a randomly
// chosen sequence, so page-opens from several sequences share each slab,
// under a capacity the slabs' surplus pages would exceed many times over if
// they counted toward it; an append is refused only when the held rows and
// its own would exceed the capacity.
func TestRecyclingChurnMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			churn(t, rand.New(rand.NewSource(seed)), 1000, false, 0)
		})
	}
	t.Run("one-row", func(t *testing.T) {
		churn(t, rand.New(rand.NewSource(4)), 3000, true, 96)
	})
}

// churn runs ops random operations on a cache of the given capacity (0 =
// unlimited), one row an append when oneRow is set.
func churn(t *testing.T, rng *rand.Rand, ops int, oneRow bool, capacity int) {
	const nkv, dh, seqIDs = 2, 2, 6
	c := mustNew(t, Config{KVHeads: nkv, HeadDim: dh, PageSize: 4, Capacity: capacity})
	seqs := map[int][]modelRow{}
	var spans []modelSpan
	known := map[*page]bool{} // every page the cache has cut
	gc := rand.New(rand.NewSource(int64(ops)))
	stamp := float32(0) // every row's values are unique
	refused, surplus := 0, 0
	for op := 0; op < ops; op++ {
		if gc.Intn(40) == 0 {
			runtime.GC()
		}
		var what string
		switch r := rng.Intn(10); {
		case r < 5: // append, continuing the sequence's positions
			seq := rng.Intn(seqIDs)
			n := 1 + rng.Intn(9)
			if rng.Intn(4) == 0 {
				n += rng.Intn(24)
			}
			if oneRow {
				n = 1
			}
			next := 0
			if rows := seqs[seq]; len(rows) > 0 {
				next = rows[len(rows)-1].pos + 1
			}
			k, v := tensor.New(n, nkv, dh), tensor.New(n, nkv, dh)
			pos := make([]int, n)
			var added []modelRow
			for i := range pos {
				for j := range k.Row2D(i) {
					stamp++
					k.Row2D(i)[j], v.Row2D(i)[j] = stamp, -stamp
				}
				pos[i] = -1
				if rng.Intn(8) != 0 {
					pos[i] = next
					next++
					added = append(added, modelRow{pos[i], k.Row2D(i), v.Row2D(i)})
				}
			}
			before := heldPages(c.seqs[seq])
			var top *page
			if len(c.free) > 0 {
				top = c.free[len(c.free)-1]
			}
			err := c.Append(seq, k, v, pos)
			var full *ErrCapacity
			switch {
			case errors.As(err, &full):
				if capacity == 0 || full.Have != c.TotalTokens() || full.Have+full.Need <= capacity {
					t.Fatalf("op %d: %v with %d rows held, capacity %d", op, err, c.TotalTokens(), capacity)
				}
				refused++
			case err != nil:
				t.Fatal(err)
			default:
				seqs[seq] = append(seqs[seq], added...)
				if first := firstOpened(before, heldPages(c.seqs[seq])); top != nil && first != nil && first != top {
					t.Fatalf("op %d: an append opened a page below the top of the free stack", op)
				}
			}
			what = fmt.Sprintf("append %d rows to %d", n, seq)
		case r < 7: // pin a prefix of a live sequence, often mid-page
			seq := rng.Intn(seqIDs)
			rows := seqs[seq]
			if len(rows) == 0 {
				continue
			}
			upTo := 1 + rng.Intn(rows[len(rows)-1].pos+1)
			sp, err := c.AcquireSpan(seq, upTo)
			if err != nil {
				t.Fatal(err)
			}
			keep := 0
			for keep < len(rows) && rows[keep].pos < upTo {
				keep++
			}
			spans = append(spans, modelSpan{sp, append([]modelRow(nil), rows[:keep]...)})
			what = fmt.Sprintf("acquire %d below %d", seq, upTo)
		case r < 8: // seed an empty sequence from a span
			if len(spans) == 0 {
				continue
			}
			seq := rng.Intn(seqIDs)
			if len(seqs[seq]) > 0 {
				continue
			}
			s := spans[rng.Intn(len(spans))]
			if err := c.AdoptSpan(seq, s.sp); err != nil {
				t.Fatal(err)
			}
			seqs[seq] = append([]modelRow(nil), s.rows...)
			what = fmt.Sprintf("adopt a %d-row span into %d", len(s.rows), seq)
		case r < 9:
			seq := rng.Intn(seqIDs)
			held := heldPages(c.seqs[seq])
			c.Drop(seq)
			delete(seqs, seq)
			what = fmt.Sprintf("drop %d", seq)
			checkPushed(t, c, held, what)
		default:
			if len(spans) == 0 {
				continue
			}
			i := rng.Intn(len(spans))
			held := pagesOf(spans[i].sp.refs)
			spans[i].sp.Release()
			spans = append(spans[:i], spans[i+1:]...)
			what = fmt.Sprintf("release span %d", i)
			checkPushed(t, c, held, what)
		}
		surplus += checkChurn(t, c, seqs, spans, known, fmt.Sprintf("op %d (%s)", op, what))
		if capacity > 0 && c.TotalTokens() > capacity {
			t.Fatalf("op %d (%s): %d rows held, capacity %d", op, what, c.TotalTokens(), capacity)
		}
	}
	if capacity > 0 {
		t.Logf("%d appends refused at capacity %d, beside %d free pages a check on average", refused, capacity, surplus/ops)
	}
	if capacity > 0 && (refused == 0 || surplus == 0) {
		t.Fatalf("%d appends refused, %d free pages seen: the capacity never bound beside free pages", refused, surplus)
	}
}

// heldPages returns the pages a sequence holds, in order; none for nil.
func heldPages(sc *seqCache) []*page {
	if sc == nil {
		return nil
	}
	return pagesOf(sc.refs)
}

func pagesOf(refs []pageRef) []*page {
	pages := make([]*page, len(refs))
	for i, ref := range refs {
		pages[i] = ref.pg
	}
	return pages
}

// firstOpened returns the first page an append opened, given the pages its
// sequence held before and after: a copy-on-write clone of the tail, or
// else the first page past the old tail; nil when it opened none.
func firstOpened(before, after []*page) *page {
	if n := len(before); n > 0 && after[n-1] != before[n-1] {
		return after[n-1]
	}
	if len(after) > len(before) {
		return after[len(before)]
	}
	return nil
}

// checkPushed checks that the pages of held that a drop or release freed
// are the top of c's free stack, pushed last page first: the first of them
// is on top.
func checkPushed(t *testing.T, c *Cache, held []*page, what string) {
	t.Helper()
	var freed []*page
	for _, pg := range held {
		if pg.refs == 0 {
			freed = append(freed, pg)
		}
	}
	if len(freed) > len(c.free) {
		t.Fatalf("%s freed %d pages, %d on the free stack", what, len(freed), len(c.free))
	}
	top := c.free[len(c.free)-len(freed):]
	for i, pg := range freed {
		if top[len(top)-1-i] != pg {
			t.Fatalf("%s: freed page %d of %d is not where the free stack's last-in order puts it", what, i, len(freed))
		}
	}
}

// checkChurn compares c with the model and returns the pages on the free
// stack. known gains every page seen held or free; the free stack must hold
// exactly the known pages that nothing holds, each once.
func checkChurn(t *testing.T, c *Cache, seqs map[int][]modelRow, spans []modelSpan, known map[*page]bool, at string) int {
	t.Helper()
	holders := map[*page]int{}
	for seq, rows := range seqs {
		if got := c.SeqLen(seq); got != len(rows) {
			t.Fatalf("%s: sequence %d holds %d rows, model %d", at, seq, got, len(rows))
		}
		k, v, pos := get(c, seq)
		for i, r := range rows {
			if pos[i] != r.pos || !equalRow(k.Row2D(i), r.k) || !equalRow(v.Row2D(i), r.v) {
				t.Fatalf("%s: sequence %d row %d reads (%d, %v, %v), model (%d, %v, %v)",
					at, seq, i, pos[i], k.Row2D(i), v.Row2D(i), r.pos, r.k, r.v)
			}
		}
		if sc := c.seqs[seq]; sc != nil {
			for _, ref := range sc.refs {
				holders[ref.pg]++
			}
		}
	}
	for si, s := range spans {
		i := 0
		for _, ref := range s.sp.refs {
			holders[ref.pg]++
			for j := 0; j < ref.n; j++ {
				r := s.rows[i]
				if ref.pg.pos[j] != r.pos || !equalRow(c.row(ref.pg.k, j), r.k) || !equalRow(c.row(ref.pg.v, j), r.v) {
					t.Fatalf("%s: span %d row %d reads position %d, model (%d, %v, %v)", at, si, i, ref.pg.pos[j], r.pos, r.k, r.v)
				}
				i++
			}
		}
		if i != len(s.rows) || s.sp.Tokens() != len(s.rows) {
			t.Fatalf("%s: span %d pins %d rows (Tokens %d), model %d", at, si, i, s.sp.Tokens(), len(s.rows))
		}
	}
	total := 0
	for pg, n := range holders {
		if pg.refs != n {
			t.Fatalf("%s: a page has %d refs and %d holders", at, pg.refs, n)
		}
		total += len(pg.pos)
	}
	if c.TotalTokens() != total {
		t.Fatalf("%s: TotalTokens %d, held pages' rows %d", at, c.TotalTokens(), total)
	}
	free := map[*page]bool{}
	for _, pg := range c.free {
		if free[pg] || holders[pg] > 0 || pg.refs != 0 || len(pg.pos) != 0 {
			t.Fatalf("%s: a free page is on the stack twice (%v), has %d holders, %d refs and %d rows", at, free[pg], holders[pg], pg.refs, len(pg.pos))
		}
		free[pg] = true
	}
	for pg := range holders {
		known[pg] = true
	}
	for pg := range free {
		known[pg] = true
	}
	if lost := len(known) - len(holders) - len(free); lost != 0 {
		t.Fatalf("%s: %d of the %d pages cut are neither held nor free", at, lost, len(known))
	}
	return len(free)
}

func equalRow(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Decode grows a context one row at a time, and every page boundary it
// crosses opens a page. With the free stack empty, a page-open cuts a slab
// of at least slabFloorBytes of K/V and leaves the pages it does not take on
// the free stack for the next page any sequence opens. So eight sequences of
// the benchmark model's KV shape, grown in lockstep by 256 rows each, make
// three heap objects (K/V, positions, page headers) per slab of page-opens,
// plus the growth of each sequence's page list; they made four objects per
// page-open when each page-open cut a one-page slab with K and V apart.
// The collector is paused and the test runs on one processor: the
// runtime's own work around a collection allocates a few objects, which on
// a second processor land inside the count. Every sequence reads back the
// rows it was given.
func TestDecodeGrowthAllocations(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const seqs, rows, nkv, dh = 8, 256, 1, 32
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := mustNew(t, Config{KVHeads: nkv, HeadDim: dh})
	rng := rand.New(rand.NewSource(1))
	k, v := tensor.RandN(rng, seqs*rows, nkv, dh), tensor.RandN(rng, seqs*rows, nkv, dh)
	// One-row views of k and v, built before the count: row r of sequence s
	// is row s*rows+r.
	kRows, vRows := make([]tensor.Tensor, seqs*rows), make([]tensor.Tensor, seqs*rows)
	pos := make([]int, seqs*rows)
	for i := range kRows {
		kRows[i] = tensor.Tensor{Tokens: 1, Heads: nkv, Dim: dh, Data: k.Row2D(i)}
		vRows[i] = tensor.Tensor{Tokens: 1, Heads: nkv, Dim: dh, Data: v.Row2D(i)}
		pos[i] = i % rows
	}
	grow := func(r int) {
		for s := range seqs {
			i := s*rows + r
			if err := c.Append(s, &kRows[i], &vRows[i], pos[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Row 0 creates each sequence, its page list and the free stack's
	// backing array, and opens one page each: whole slabs, so the free stack
	// is empty again when the count starts.
	grow(0)
	if n := len(c.free); n != 0 {
		t.Fatalf("%d pages on the free stack after the first row of %d sequences (slab %d pages)", n, seqs, c.slab)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 1; r < rows; r++ {
		grow(r)
	}
	runtime.ReadMemStats(&m1)

	ps := c.cfg.PageSize
	opens := seqs * (rows/ps - 1)
	// The page list grows by append from one entry to rows/ps.
	listGrowth, list := 0, make([]pageRef, 1)
	for len(list) < rows/ps {
		if len(list) == cap(list) {
			listGrowth++
		}
		list = append(list, pageRef{})
	}
	const slabObjects = 3 // K/V, positions, page headers
	budget := (opens+c.slab-1)/c.slab*slabObjects + seqs*listGrowth*growObjects()
	got := m1.Mallocs - m0.Mallocs
	t.Logf("%d page-opens in %d-page slabs made %d heap objects, budget %d (%d of them page-list growth)",
		opens, c.slab, got, budget, seqs*listGrowth*growObjects())
	if got > uint64(budget) {
		t.Errorf("%d page-opens made %d heap objects, budget %d: %d-page slabs of %d objects each, plus %d page-list growths",
			opens, got, budget, c.slab, slabObjects, seqs*listGrowth)
	}
	if c.TotalTokens() != seqs*rows {
		t.Fatalf("TotalTokens = %d, want %d", c.TotalTokens(), seqs*rows)
	}
	for s := range seqs {
		gk, gv, gpos := get(c, s)
		sameBits(t, fmt.Sprintf("sequence %d K", s), gk.Data, k.Data[s*rows*nkv*dh:(s+1)*rows*nkv*dh])
		sameBits(t, fmt.Sprintf("sequence %d V", s), gv.Data, v.Data[s*rows*nkv*dh:(s+1)*rows*nkv*dh])
		sameInts(t, fmt.Sprintf("sequence %d positions", s), gpos, pos[s*rows:(s+1)*rows])
		for _, ref := range c.seqs[s].refs {
			if ref.pg.refs != 1 || ref.n != ps {
				t.Fatalf("sequence %d holds a page with %d refs and %d of %d rows", s, ref.pg.refs, ref.n, ps)
			}
		}
	}
}

// growObjects is the heap objects a page list's growth makes: slices.Grow
// appends a make, which a -race build allocates as an object of its own.
func growObjects() int {
	if testsupport.Race {
		return 2
	}
	return 1
}

// A page list is allocated once per call, however many pages it gains: an
// append that opens thirty-nine pages grows its sequence's list in one allocation
// (it grew by doubling, six times, before), and a span over those pages
// takes its list in one (seven before), beside the Span itself. The pages
// come off the free stack, stocked by a dropped sequence, so nothing else
// allocates; the collector is paused and the test runs on one processor,
// as in TestDecodeGrowthAllocations.
func TestPageListGrowsOnce(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const pages, nkv, dh = 40, 1, 32
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := mustNew(t, Config{KVHeads: nkv, HeadDim: dh})
	rows := pages * c.cfg.PageSize
	rng := rand.New(rand.NewSource(2))
	k, v := tensor.RandN(rng, rows, nkv, dh), tensor.RandN(rng, rows, nkv, dh)
	pos := make([]int, rows)
	for i := range pos {
		pos[i] = i
	}
	if err := c.Append(9, k, v, pos); err != nil {
		t.Fatal(err)
	}
	c.Drop(9)
	// Sequence 0's first row opens its first page; its list is then full.
	if err := c.Append(0, k.SliceTokens(0, 1), v.SliceTokens(0, 1), pos[:1]); err != nil {
		t.Fatal(err)
	}
	kRest, vRest := k.SliceTokens(1, rows), v.SliceTokens(1, rows)
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := c.Append(0, kRest, vRest, pos[1:])
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := c.AcquireSpan(0, rows)
	runtime.ReadMemStats(&m2)
	if err != nil {
		t.Fatal(err)
	}
	appendObjs, spanObjs := m1.Mallocs-m0.Mallocs, m2.Mallocs-m1.Mallocs
	t.Logf("a %d-page append made %d heap objects, a span over it %d", pages-1, appendObjs, spanObjs)
	if appendObjs != uint64(growObjects()) || spanObjs != 2 {
		t.Errorf("a %d-page append made %d heap objects (want %d, the page list), a span %d (want 2, the Span and its list)",
			pages-1, appendObjs, growObjects(), spanObjs)
	}
	if sp.Tokens() != rows || len(c.seqs[0].refs) != pages {
		t.Fatalf("span of %d rows over %d pages, want %d rows over %d", sp.Tokens(), len(c.seqs[0].refs), rows, pages)
	}
	sp.Release()
	gk, gv, gpos := get(c, 0)
	sameBits(t, "K", gk.Data, k.Data)
	sameBits(t, "V", gv.Data, v.Data)
	sameInts(t, "positions", gpos, pos)
}
