package ring

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attention"
	"repro/internal/comm"
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
