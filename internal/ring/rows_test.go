package ring

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

// rowsRun runs two prefill commands of run over a fresh world of n ranks —
// a fused three-sequence batch from empty caches, then a partial one on top
// of it — passing rows(rank, command, localLen) as each rank's
// PrefillInput.Rows, and returns every rank's output per command (cloned)
// and the world's modeled traffic.
func rowsRun(t *testing.T, n int, run prefillFn, rows func(rank, cmd, localLen int) []int) ([][]*attention.Output, comm.Stats, []wire.LinkStat) {
	t.Helper()
	world := newTestWorld(n)
	caches := make([]*kvcache.Cache, n)
	blocks := make([]*BlockCache, n)
	scratches := make([]*PrefillScratch, n)
	for r := range caches {
		c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		caches[r], blocks[r], scratches[r] = c, NewBlockCache(), new(PrefillScratch)
	}
	rng := rand.New(rand.NewSource(71))
	p := []int{0, 0, 0}
	var outs [][]*attention.Output
	for ci, lens := range [][]int{{9, 1, 6}, {4, 2, 11}} {
		plan, err := sharding.NewBatchShard(lens, n)
		if err != nil {
			t.Fatal(err)
		}
		total := plan.TotalTokens()
		fq, fk, fv := tensor.RandN(rng, total, nh, dh), tensor.RandN(rng, total, nkv, dh), tensor.RandN(rng, total, nkv, dh)
		selected := make([][]int, n)
		for r := range selected {
			selected[r] = rows(r, ci, plan.LocalLen(r))
		}
		got, err := comm.RunCollect(world, func(r *comm.Rank) (*attention.Output, error) {
			k, v := plan.Shard(fk, r.ID), plan.Shard(fv, r.ID)
			out, err := run(&PrefillInput{
				Rank: r, Plan: plan, P: p, Q: plan.Shard(fq, r.ID), K: k, V: v,
				Cache: caches[r.ID], Blocks: blocks[r.ID], Scratch: scratches[r.ID], Elem: elem,
				Rows: selected[r.ID],
			})
			if err != nil {
				return nil, err
			}
			if err := AppendLocalKV(caches[r.ID], plan, r.ID, p, nil, k, v); err != nil {
				return nil, err
			}
			return out.Clone(), nil
		})
		if err != nil {
			t.Fatalf("command %d: %v", ci, err)
		}
		outs = append(outs, got)
		p = []int{p[0] + lens[0], p[1] + lens[1], p[2] + lens[2]}
	}
	return outs, world.TotalStats(), world.LinkStats()
}

// Narrowing a prefill to selected rows changes which outputs come back,
// never their bits and never the traffic. PassKVPrefill, PassQPrefill and
// AllGatherPrefill at N = 2, 3 and 4 with per-rank Rows drawn at random —
// none (a rank that still sends and forwards every block), a single slot,
// every slot in shuffled order — return, for each listed slot, exactly the
// full run's row (output and LSE), and the world's modeled bytes and messages
// per collective and per directed link equal the full run's. The latter is
// what keeps benchmark/predict.go's exact traffic checks valid for the
// served path.
func TestPrefillRowsKeepBitsAndTraffic(t *testing.T) {
	variants := []struct {
		name string
		run  prefillFn
	}{{"pass-kv", PassKVPrefill}, {"pass-q", PassQPrefill}, {"all-gather", AllGatherPrefill}}
	for _, variant := range variants {
		run := variant.run
		for _, n := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/N=%d", variant.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31 * n)))
				chosen := map[[2]int][]int{}
				pickRows := func(rank, cmd, localLen int) []int {
					var rows []int
					switch (rank + cmd + rng.Intn(3)) % 3 {
					case 0:
						rows = []int{}
					case 1:
						rows = []int{rng.Intn(localLen)}
					default:
						rows = rng.Perm(localLen)
					}
					chosen[[2]int{rank, cmd}] = rows
					return rows
				}
				full, fullStats, fullLinks := rowsRun(t, n, run, func(int, int, int) []int { return nil })
				sel, selStats, selLinks := rowsRun(t, n, run, pickRows)
				for cmd := range full {
					for rank, want := range full[cmd] {
						rows := chosen[[2]int{rank, cmd}]
						got := sel[cmd][rank]
						if got.O.Tokens != len(rows) {
							t.Fatalf("command %d rank %d: %d output rows for %d selected", cmd, rank, got.O.Tokens, len(rows))
						}
						for i, slot := range rows {
							requireSameRow(t, fmt.Sprintf("command %d rank %d slot %d", cmd, rank, slot), got, i, want, slot)
						}
					}
				}
				if !reflect.DeepEqual(selStats, fullStats) {
					t.Fatalf("modeled traffic moved: selected rows %+v, every row %+v", selStats, fullStats)
				}
				if !reflect.DeepEqual(selLinks, fullLinks) {
					t.Fatalf("per-link traffic moved: selected rows %+v, every row %+v", selLinks, fullLinks)
				}
			})
		}
	}
}

// recordingMem is the in-process mailbox plus a log of every query block and
// All2All output block sent, their positions and log-sum-exps copied at send
// time (the arena that holds them is reused by the next pass).
type recordingMem struct {
	*transport.Mem
	mu sync.Mutex
	qs []sentBlock // Pos of each *wire.QBlock
	os []sentBlock // LSE of each *wire.OBlock
}

type sentBlock struct {
	src, dst int
	pos      []int
	lse      []float64
}

func (m *recordingMem) Send(src, dst int, payload any, timeout time.Duration) error {
	m.mu.Lock()
	switch b := payload.(type) {
	case *wire.QBlock:
		m.qs = append(m.qs, sentBlock{src: src, dst: dst, pos: slices.Clone(b.Pos)})
	case *wire.OBlock:
		m.os = append(m.os, sentBlock{src: src, dst: dst, lse: slices.Clone(b.Out.LSE)})
	}
	m.mu.Unlock()
	return m.Mem.Send(src, dst, payload, timeout)
}

// Pass-Q narrows to Rows by masking, not by shrinking: over a recording
// mailbox at N = 2, 3 and 4, a persistent-KV pass-Q chunk whose ranks list no
// slot, one slot, or every slot shuffled circulates query blocks that keep
// one position per local slot of their source, non-negative exactly at the
// source's listed non-padding slots, and every output block sent back in the
// All2All has LSE -Inf at its destination's unlisted slots: no rank attended
// them. With Rows == nil the block carries the full query positions.
func TestPassQRowsMaskCirculatingQueries(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, mode := range []string{"nil", "none", "one", "shuffled"} {
			t.Run(fmt.Sprintf("N=%d/%s", n, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(17*n + len(mode))))
				tp := &recordingMem{Mem: transport.NewMem(n)}
				world := comm.NewWorldOver(tp, comm.WithRecvTimeout(5*time.Second))
				caches := make([]*kvcache.Cache, n)
				for r := range caches {
					c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
					if err != nil {
						t.Fatal(err)
					}
					caches[r] = c
				}
				// The first command fills the caches; the second is the
				// pass-Q chunk on top of them.
				p := []int{0, 0, 0}
				var plan *sharding.BatchShard
				rows := make([][]int, n)
				for cmd, lens := range [][]int{{9, 2, 6}, {4, 1, 7}} {
					var err error
					if plan, err = sharding.NewBatchShard(lens, n); err != nil {
						t.Fatal(err)
					}
					run := PassKVPrefill
					if cmd == 1 {
						run = PassQPrefill
						for r := range rows {
							switch local := plan.LocalLen(r); mode {
							case "none":
								rows[r] = []int{}
							case "one":
								rows[r] = []int{rng.Intn(local)}
							case "shuffled":
								rows[r] = rng.Perm(local)
							}
						}
						tp.mu.Lock()
						tp.qs, tp.os = nil, nil
						tp.mu.Unlock()
					}
					total := plan.TotalTokens()
					fq, fk, fv := tensor.RandN(rng, total, nh, dh), tensor.RandN(rng, total, nkv, dh), tensor.RandN(rng, total, nkv, dh)
					pc := slices.Clone(p)
					_, err = comm.RunCollect(world, func(r *comm.Rank) (*attention.Output, error) {
						k, v := plan.Shard(fk, r.ID), plan.Shard(fv, r.ID)
						in := &PrefillInput{
							Rank: r, Plan: plan, P: pc, Q: plan.Shard(fq, r.ID), K: k, V: v,
							Cache: caches[r.ID], Scratch: new(PrefillScratch), Elem: elem,
						}
						if cmd == 1 {
							in.Rows = rows[r.ID]
						}
						if _, err := run(in); err != nil {
							return nil, err
						}
						return nil, AppendLocalKV(caches[r.ID], plan, r.ID, pc, nil, k, v)
					})
					if err != nil {
						t.Fatalf("command %d: %v", cmd, err)
					}
					if cmd == 0 {
						for i, l := range lens {
							p[i] += l
						}
					}
				}
				// listed reports whether the source's slot is attended, and
				// qPos is the source's full query mask.
				listed := func(src, slot int) bool { return rows[src] == nil || slices.Contains(rows[src], slot) }
				qPos := func(src, slot int) int {
					if lp := plan.LocalPositions(src)[slot]; lp != sharding.Pad {
						return p[plan.LocalSeqs(src)[slot]] + lp
					}
					return -1
				}
				if len(tp.qs) != n*(n-1) || len(tp.os) != n*(n-1) {
					t.Fatalf("%d query and %d output blocks sent, want %d each", len(tp.qs), len(tp.os), n*(n-1))
				}
				hops := make([]int, n) // query blocks each rank has sent so far
				for _, b := range tp.qs {
					src := (b.src - hops[b.src] + n) % n // the k-th block a rank forwards is from k ranks back
					hops[b.src]++
					if len(b.pos) != plan.LocalLen(src) {
						t.Fatalf("rank %d forwarded rank %d's block with %d positions for %d slots", b.src, src, len(b.pos), plan.LocalLen(src))
					}
					for slot, got := range b.pos {
						want := -1
						if listed(src, slot) {
							want = qPos(src, slot)
						}
						if got != want {
							t.Fatalf("rank %d's block (Rows %v) carries position %d at slot %d, want %d", src, rows[src], got, slot, want)
						}
					}
				}
				for _, b := range tp.os {
					if len(b.lse) != plan.LocalLen(b.dst)*nh {
						t.Fatalf("rank %d sent rank %d %d LSE entries for %d slots", b.src, b.dst, len(b.lse), plan.LocalLen(b.dst))
					}
					for slot := 0; slot < plan.LocalLen(b.dst); slot++ {
						if listed(b.dst, slot) {
							continue
						}
						for h, lse := range b.lse[slot*nh : (slot+1)*nh] {
							if !math.IsInf(lse, -1) {
								t.Fatalf("rank %d attended rank %d's unlisted slot %d (head %d LSE %v)", b.src, b.dst, slot, h, lse)
							}
						}
					}
				}
			})
		}
	}
}

// requireSameRow fails unless row i of got equals row j of want bit for bit,
// output and log-sum-exp.
func requireSameRow(t *testing.T, what string, got *attention.Output, i int, want *attention.Output, j int) {
	t.Helper()
	a, b := got.O.Row2D(i), want.O.Row2D(j)
	for d := range b {
		if math.Float32bits(a[d]) != math.Float32bits(b[d]) {
			t.Fatalf("%s: element %d is %x, the full run's %x", what, d, math.Float32bits(a[d]), math.Float32bits(b[d]))
		}
	}
	h := want.O.Heads
	for k := 0; k < h; k++ {
		if x, y := got.LSE[i*h+k], want.LSE[j*h+k]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: head %d LSE is %v, the full run's %v", what, k, x, y)
		}
	}
}

func TestPrefillRowsValidated(t *testing.T) {
	w := comm.NewWorld(1)
	plan, _ := sharding.NewBatchShard([]int{4}, 1)
	cache, _ := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh})
	in := &PrefillInput{
		Rank: w.Rank(0), Plan: plan, P: []int{0},
		Q: tensor.New(4, nh, dh), K: tensor.New(4, nkv, dh), V: tensor.New(4, nkv, dh),
		Cache: cache, Elem: elem, Rows: []int{4},
	}
	if _, err := PassKVPrefill(in); err == nil {
		t.Fatal("a selected row past the local slots was accepted")
	}
}
