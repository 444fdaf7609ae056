package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// benchGQA8 is the registered benchmark's model (benchmark/spec.go).
func benchGQA8() transformer.Config {
	return transformer.Config{
		Model: model.Config{
			Name: "bench-gqa8", Layers: 2, ModelDim: 256, FFNDim: 512,
			NumHeads: 8, NumKV: 1, HeadDim: 32, VocabSize: 512,
			ElemBytes: 2, Params: 1.2e6,
		},
		RoPEBase: 10000, NormEps: 1e-5, Seed: 1,
	}
}

// A warm scheduler iteration allocates the KV pages its decode opens and the
// growth of its requests' token and latency lists, and nothing else: the
// real Scheduler, on a traced in-process cluster of two ranks, serves eight
// bench-gqa8 generate streams, each prefilled with a 512-token prompt in one
// chunk (256 rows a rank: every tail page full) and then fused into one
// DecodeNext batch per iteration. A sequence's owner alternates between the
// ranks, so each of its layers opens one page a rank every 32 of its steps,
// and any 128 consecutive iterations open exactly 4 × 8 × 2 × 2 = 128 pages
// of 4 objects each (K, V, positions and the page header): 4 objects an
// iteration. Allowing half an object an iteration for the rest — the lists
// of pages, tokens and latencies growing by doubling — the best of three
// such windows must stay within 4.5 objects an iteration. A step that
// allocated would show in every window; what shows in some is the runtime's
// own (see transformer.TestDecodeStepAllocationBudget), and the collector is
// paused for the same reason. Measured at 4.08–4.15 in the best window,
// against 86.5–86.9 before the step loop and the layers under it kept their
// scratch.
func TestSchedulerIterationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const sessions, prompt, window, windows = 8, 512, 128, 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := benchGQA8()
	w, err := transformer.NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := transformer.NewCluster(w, 2, transformer.WithTrace(trace.New()))
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(c, SchedulerConfig{TokenBudget: prompt, Manual: true})
	defer s.Close()
	var waits []func() []int
	for i := 0; i < sessions; i++ {
		toks := make([]int, prompt)
		for j := range toks {
			toks[j] = (j*7 + i*13 + 1) % cfg.Model.VocabSize
		}
		waits = append(waits, generateAsync(t, s, i+1, toks, (windows+2)*window))
	}
	iterate := func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := s.step(); !ok {
				t.Fatal("the scheduler ran out of work")
			}
		}
	}
	iterate(sessions + window) // every prefill, then a warm-up
	var m0, m1 runtime.MemStats
	perIter := make([]float64, windows)
	for i := range perIter {
		runtime.ReadMemStats(&m0)
		iterate(window)
		runtime.ReadMemStats(&m1)
		perIter[i] = float64(m1.Mallocs-m0.Mallocs) / window
	}
	pages := float64(4*sessions*int(cfg.Model.Layers)) / kvcache.DefaultPageSize
	t.Logf("%d-iteration windows of a B=%d fused decode allocated %v objects an iteration (%.1f of them pages)", window, sessions, perIter, pages)
	if best := slices.Min(perIter); best > pages+0.5 {
		t.Errorf("every %d-iteration window allocated more than %.1f objects an iteration: %v", window, pages+0.5, perIter)
	}
	for { // run the streams out
		if _, ok := s.step(); !ok {
			break
		}
	}
	for _, wait := range waits {
		wait()
	}
}

// A steady-state persistent-prefix request allocates the KV rows it keeps
// and a constant. The server runs the registered benchmark's configuration
// (bench-gqa8 on two in-process ranks, model.Auto, 512-token chunks, the
// prefix tree and the recorder on), and each request is prefill_persistent's
// through the handler: a /v1/prefill of a 1536-token corpus plus a unique
// 256-token suffix (adopted prefix, one pass-Q chunk), a /v1/generate
// continuation of 32 tokens (a one-token pass-Q chunk, then 31 decode
// steps), and a DELETE. Two requests warm up — the first prefills the corpus
// and donates it to the tree — and every one of the next five may allocate
// at most the 148.5 KiB of its 288 KV rows (K, V and position, every layer)
// plus perRequestKiB: the rows' page rounding, the JSON bodies, the
// scheduler's request record and token lists, the chunk plans and position
// lists, and the recorder's spans. On a 2-vCPU AVX-512 Xeon that rest
// measured 129–189 KiB over 300 requests at GOMAXPROCS=2, against
// 960–1,035 KiB when pass-Q's merge tail was cut anew at every chunk
// length. The constant is about twice the rest, so a reallocated tail, at
// 780 KiB a request, cannot pass.
func TestPersistentPrefixRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const prefix, suffix, out, warm, measured, perRequestKiB = 1536, 256, 32, 2, 5, 400.0
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Kernels run inline on the rank goroutines. The kernels' free lists
	// gain an entry whenever more kernel calls overlap than ever before in
	// the process, and with the pool's workers that high-water mark moves
	// with scheduling: beside other test binaries, one request in a few
	// runs took 1.2–1.3 MiB of new entries. Inline, at most one call per
	// rank overlaps, which the warm-up reaches.
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	cfg := benchGQA8()
	srv, err := New(Config{Transformer: cfg, Ranks: 2, Variant: model.Auto, TokenBudget: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	call := func(method, path string, body, reply any) {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(buf)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		if reply != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	vocab := cfg.Model.VocabSize
	prompt := make([]int, prefix+suffix)
	for i := range prompt[:prefix] {
		prompt[i] = (i*5 + 3) % vocab
	}
	serve := func(session int) {
		for i := prefix; i < len(prompt); i++ {
			prompt[i] = (i*7 + session*13 + 1) % vocab
		}
		var pre prefillResponse
		call(http.MethodPost, "/v1/prefill", prefillRequest{Session: session, Tokens: prompt}, &pre)
		var gen generateResponse
		call(http.MethodPost, "/v1/generate", generateRequest{Session: session, Prompt: []int{pre.NextToken}, MaxTokens: out}, &gen)
		if len(gen.Tokens) != out {
			t.Fatalf("session %d generated %d tokens, want %d", session, len(gen.Tokens), out)
		}
		call(http.MethodDelete, fmt.Sprintf("/v1/session/%d", session), nil, nil)
	}
	for i := 1; i <= warm; i++ {
		serve(i)
	}
	if r := srv.sched.Reuse(); r.Hits != warm-1 {
		t.Fatalf("%d of %d warm-up requests adopted the corpus, want %d", r.Hits, warm, warm-1)
	}
	m := cfg.Model
	kvKiB := float64((suffix+out)*m.Layers*(2*m.NumKV*m.HeadDim*4+8)) / 1024
	kib := make([]float64, measured)
	var m0, m1 runtime.MemStats
	for i := range kib {
		runtime.ReadMemStats(&m0)
		serve(warm + 1 + i)
		runtime.ReadMemStats(&m1)
		kib[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	}
	t.Logf("persistent-prefix requests allocated %.1f KiB each, %.1f KiB of it KV rows", kib, kvKiB)
	if worst := slices.Max(kib); worst > kvKiB+perRequestKiB {
		t.Errorf("a persistent-prefix request allocated %.1f KiB, budget %.1f (KV rows) + %.0f", worst, kvKiB, perRequestKiB)
	}
}
