package kvcache

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/attention"
	"repro/internal/tensor"
)

// drainFree empties c's free list and returns its pages.
func drainFree(c *Cache) []*page {
	var pages []*page
	for {
		pg, _ := c.free.Get().(*page)
		if pg == nil {
			return pages
		}
		pages = append(pages, pg)
	}
}

// refillFree puts pages back on c's free list, last first, as Drop does.
func refillFree(c *Cache, pages []*page) {
	for i := len(pages) - 1; i >= 0; i-- {
		c.free.Put(pages[i])
	}
}

// poisonFree fills the K and V of every page on c's free list with NaN and
// returns the set of those pages.
func poisonFree(c *Cache) map[*page]bool {
	pages := drainFree(c)
	set := make(map[*page]bool, len(pages))
	for _, pg := range pages {
		for i := range pg.k {
			pg.k[i], pg.v[i] = float32(math.NaN()), float32(math.NaN())
		}
		set[pg] = true
	}
	refillFree(c, pages)
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
// decode kernel over the recycled runs is bitwise the fresh one's.
func TestRecycledPagesReadBackAsFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the free list
	cfg := Config{KVHeads: 2, HeadDim: 3, PageSize: 4}
	used, fresh := mustNew(t, cfg), mustNew(t, cfg)
	// Earlier traffic: sequences, a span adopted and copied on write, all
	// released again.
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
	poisoned := poisonFree(used)
	if len(poisoned) == 0 {
		t.Fatal("no page reached the free list")
	}

	recycleScript(t, used, rand.New(rand.NewSource(9)))
	recycleScript(t, fresh, rand.New(rand.NewSource(9)))
	reused := 0
	for _, seq := range []int{7, 8} {
		for _, ref := range used.seqs[seq].refs {
			if poisoned[ref.pg] {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatal("the script took no page off the free list")
	}
	if used.TotalTokens() != fresh.TotalTokens() {
		t.Fatalf("TotalTokens %d on recycled pages, %d fresh", used.TotalTokens(), fresh.TotalTokens())
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
			if err := attention.DecodeKVInto(out, q, attention.KV{Heads: cfg.KVHeads, Dim: cfg.HeadDim, Runs: runs}, 0); err != nil {
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
// its holders, TotalTokens counts each held page once, and no held page is
// on the free list. Recycling turns a refcount slip into a neighbour's
// corrupted rows, which the first check catches.
func TestRecyclingChurnMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			churn(t, rand.New(rand.NewSource(seed)), 1000)
		})
	}
}

func churn(t *testing.T, rng *rand.Rand, ops int) {
	const nkv, dh, seqIDs = 2, 2, 6
	c := mustNew(t, Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
	seqs := map[int][]modelRow{}
	var spans []modelSpan
	stamp := float32(0) // every row's values are unique
	for op := 0; op < ops; op++ {
		var what string
		switch r := rng.Intn(10); {
		case r < 5: // append, continuing the sequence's positions
			seq := rng.Intn(seqIDs)
			n := 1 + rng.Intn(9)
			if rng.Intn(4) == 0 {
				n += rng.Intn(24)
			}
			next := 0
			if rows := seqs[seq]; len(rows) > 0 {
				next = rows[len(rows)-1].pos + 1
			}
			k, v := tensor.New(n, nkv, dh), tensor.New(n, nkv, dh)
			pos := make([]int, n)
			for i := range pos {
				for j := range k.Row2D(i) {
					stamp++
					k.Row2D(i)[j], v.Row2D(i)[j] = stamp, -stamp
				}
				pos[i] = -1
				if rng.Intn(8) != 0 {
					pos[i] = next
					next++
					seqs[seq] = append(seqs[seq], modelRow{pos[i], k.Row2D(i), v.Row2D(i)})
				}
			}
			if err := c.Append(seq, k, v, pos); err != nil {
				t.Fatal(err)
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
			c.Drop(seq)
			delete(seqs, seq)
			what = fmt.Sprintf("drop %d", seq)
		default:
			if len(spans) == 0 {
				continue
			}
			i := rng.Intn(len(spans))
			spans[i].sp.Release()
			spans = append(spans[:i], spans[i+1:]...)
			what = fmt.Sprintf("release span %d", i)
		}
		checkChurn(t, c, seqs, spans, fmt.Sprintf("op %d (%s)", op, what))
	}
}

// checkChurn compares c with the model.
func checkChurn(t *testing.T, c *Cache, seqs map[int][]modelRow, spans []modelSpan, at string) {
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
	free := drainFree(c)
	for _, pg := range free {
		if holders[pg] > 0 || pg.refs != 0 || len(pg.pos) != 0 {
			t.Fatalf("%s: a free page has %d holders, %d refs and %d rows", at, holders[pg], pg.refs, len(pg.pos))
		}
	}
	refillFree(c, free)
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
