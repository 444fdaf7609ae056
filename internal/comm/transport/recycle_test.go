package transport_test

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/model"
	"repro/internal/transformer"
)

// A use after recycle cannot hide. With the poison hook on, every block a
// rank hands back to its TCP transport is filled with NaN before a reader
// can decode into it, so a pass that read a received block after handing it
// back, or handed it back before forwarding it, would put NaN into its
// outputs. Ranks behind TCP must still match the in-process ring exactly:
// RunWorker ranks through cold and warm pass-KV and pass-Q prefills and
// fused decode, at N = 2 and 3.
func TestUseAfterRecycleCannotHide(t *testing.T) {
	defer transport.PoisonRecycled(true)()
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			before := transport.Poisoned()
			servedLogitsMatch(t, n)
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
