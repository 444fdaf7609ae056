package transport_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// A use after recycle cannot hide. With the poison hook on, every block a
// rank hands back to its TCP transport is filled with NaN before a reader
// can decode into it, so a pass that read a received block after handing it
// back, or handed it back before forwarding it, would put NaN into its
// outputs. Ranks behind TCP must still match the in-process ring exactly:
// RunWorker ranks through cold and warm pass-KV and pass-Q prefills and
// fused decode, and all-gather prefill over a TCP mesh, cold and warm, at
// N = 2 and 3.
func TestUseAfterRecycleCannotHide(t *testing.T) {
	defer transport.PoisonRecycled(true)()
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			before := transport.Poisoned()
			servedLogitsMatch(t, n)
			allGatherMatches(t, n)
			if transport.Poisoned() == before {
				t.Fatal("no block was handed back, so the hook checked nothing")
			}
		})
	}
}

// servedLogitsMatch drives an in-process cluster and one of RunWorker ranks
// through the same script and requires bit-identical logits at every step.
func servedLogitsMatch(t *testing.T, n int) {
	cfg := transformer.Tiny(11)
	w, err := transformer.NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := transformer.NewCluster(w, n)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	dist := startWorkers(t, cfg, n)
	vocab := cfg.Model.VocabSize
	prompt := func(l, stride int) []int {
		out := make([]int, l)
		for i := range out {
			out[i] = (i*stride + 3) % vocab
		}
		return out
	}
	prefill := func(seq int, toks []int, v model.Variant, what string) {
		t.Helper()
		a, err := ref.Prefill(seq, toks, v)
		if err != nil {
			t.Fatalf("%s (in-process): %v", what, err)
		}
		b, err := dist.Prefill(seq, toks, v)
		if err != nil {
			t.Fatalf("%s (TCP): %v", what, err)
		}
		sameRows(t, what, a, b)
	}
	decode := func(seqs []int, steps int, what string) {
		t.Helper()
		toks := make([]int, len(seqs))
		for step := 0; step < steps; step++ {
			a, err := ref.DecodeBatch(seqs, toks)
			if err != nil {
				t.Fatalf("%s (in-process): %v", what, err)
			}
			b, err := dist.DecodeBatch(seqs, toks)
			if err != nil {
				t.Fatalf("%s (TCP): %v", what, err)
			}
			sameRows(t, fmt.Sprintf("%s step %d", what, step), a, b)
			for i := range toks {
				toks[i] = transformer.Argmax(a[i])
			}
		}
	}
	prefill(1, prompt(40, 5), model.PassKV, "cold pass-KV")
	prefill(2, prompt(33, 7), model.PassQ, "cold pass-Q")
	prefill(1, prompt(17, 13), model.PassKV, "second pass-KV chunk")
	prefill(2, prompt(9, 3), model.PassQ, "second pass-Q chunk")
	decode([]int{1, 2}, 6, "fused decode")

	// Warm: adopt a detached prefix and prefill only the suffix, both ways.
	donor := prompt(48, 9)
	prefill(10, donor[:32], model.PassKV, "donor chunk")
	refPre, err := ref.DetachPrefix(10, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer refPre.Release()
	distPre, err := dist.DetachPrefix(10, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer distPre.Release()
	for _, warm := range []struct {
		seq int
		v   model.Variant
	}{{11, model.PassKV}, {12, model.PassQ}} {
		seq, v := warm.seq, warm.v
		what := fmt.Sprintf("warm %v prefill", v)
		a, err := ref.PrefillFrom(seq, refPre, donor[32:], v)
		if err != nil {
			t.Fatalf("%s (in-process): %v", what, err)
		}
		b, err := dist.PrefillFrom(seq, distPre, donor[32:], v)
		if err != nil {
			t.Fatalf("%s (TCP): %v", what, err)
		}
		sameRows(t, what, a, b)
	}
	decode([]int{11, 12}, 4, "warm fused decode")
}

// startWorkers runs n RunWorker ranks on loopback listeners and connects a
// coordinator to them.
func startWorkers(t *testing.T, cfg transformer.Config, n int) *transformer.Cluster {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range listeners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = transformer.RunWorker(transformer.WorkerConfig{
				Transformer: cfg, Rank: i, World: n, Listener: listeners[i], Addrs: addrs,
				RendezvousTimeout: 20 * time.Second,
			})
		}(i)
	}
	w, err := transformer.NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := transformer.ConnectCluster(w, transformer.ConnectConfig{Addrs: addrs, DialTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	})
	return c
}

func sameRows(t *testing.T, what string, a, b [][]float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", what, len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if len(a[i]) != len(b[i]) || math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				t.Fatalf("%s: row %d logit %d: in-process %v, TCP %v", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// allGatherMatches runs three all-gather prefill turns — one cold, two on
// cached context — on an in-process world and on a TCP mesh, one world per
// rank as in separate processes, and requires bit-identical outputs.
func allGatherMatches(t *testing.T, n int) {
	const nh, nkv, dh = 4, 2, 4
	mesh := transport.LoopbackMesh(t, n, 0x53)
	mem := comm.NewWorld(n)
	worlds := make([]*comm.World, n)
	for i := range worlds {
		worlds[i] = comm.NewWorldOver(mesh[i], comm.WithRecvTimeout(5*time.Second))
	}
	caches := func() []*kvcache.Cache {
		out := make([]*kvcache.Cache, n)
		for i := range out {
			c, err := kvcache.New(kvcache.Config{KVHeads: nkv, HeadDim: dh, PageSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = c
		}
		return out
	}
	memCaches, tcpCaches := caches(), caches()
	rng := rand.New(rand.NewSource(int64(n)))
	p := []int{0, 0}
	for turn, lens := range [][]int{{6, 10}, {5, 3}, {7, 9}} {
		plan, err := sharding.NewBatchShard(lens, n)
		if err != nil {
			t.Fatal(err)
		}
		total := plan.TotalTokens()
		q, k, v := tensor.RandN(rng, total, nh, dh), tensor.RandN(rng, total, nkv, dh), tensor.RandN(rng, total, nkv, dh)
		pass := func(cs []*kvcache.Cache) func(r *comm.Rank) (*attention.Output, error) {
			return func(r *comm.Rank) (*attention.Output, error) {
				in := &ring.PrefillInput{Rank: r, Plan: plan, P: p,
					Q: plan.Shard(q, r.ID), K: plan.Shard(k, r.ID), V: plan.Shard(v, r.ID),
					Cache: cs[r.ID], Elem: 2}
				out, err := ring.AllGatherPrefill(in)
				if err != nil {
					return nil, err
				}
				return out, ring.AppendLocalKV(cs[r.ID], plan, r.ID, p, nil, in.K, in.V)
			}
		}
		want, err := comm.RunCollect(mem, pass(memCaches))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*attention.Output, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, w := range worlds {
			wg.Add(1)
			go func(i int, w *comm.World) {
				defer wg.Done()
				outs, err := comm.RunCollect(w, pass(tcpCaches))
				if err == nil {
					got[i] = outs[i]
				}
				errs[i] = err
			}(i, w)
		}
		wg.Wait()
		for r := range want {
			if errs[r] != nil {
				t.Fatalf("turn %d rank %d over TCP: %v", turn, r, errs[r])
			}
			a, b := want[r], got[r]
			for i := range a.O.Data {
				if math.Float32bits(a.O.Data[i]) != math.Float32bits(b.O.Data[i]) {
					t.Fatalf("all-gather turn %d rank %d element %d: in-process %v, TCP %v", turn, r, i, a.O.Data[i], b.O.Data[i])
				}
			}
			for i := range a.LSE {
				if math.Float64bits(a.LSE[i]) != math.Float64bits(b.LSE[i]) {
					t.Fatalf("all-gather turn %d rank %d LSE %d: in-process %v, TCP %v", turn, r, i, a.LSE[i], b.LSE[i])
				}
			}
		}
		for i, l := range lens {
			p[i] += l
		}
	}
}
