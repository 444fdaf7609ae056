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
	"repro/internal/testsupport"
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
// and any 128 consecutive iterations open exactly 4 × 8 × 2 × 2 = 128
// pages: one an iteration. No page is freed, so each cache cuts them in
// slabs of 4 pages (its 16 KiB floor of K/V on this model), 3 objects a slab
// (K/V, positions and the page headers): 0.75 objects an iteration.
// Allowing half an object an iteration for the rest — the lists of pages,
// tokens and latencies growing by doubling, a window that cuts one more slab
// per cache — the best of three such windows must stay within 1.25 objects
// an iteration. A step that allocated would show in every window; what
// shows in some is the runtime's own (see
// transformer.TestDecodeStepAllocationBudget), and the collector is paused
// for the same reason. Measured at 0.78–0.82 in the best window; 0.88–0.96
// while page lists grew by doubling, 4.08–4.15 when each page-open cut a
// one-page slab of 4 objects, and 86.5–86.9 before the step loop and the
// layers under it kept their scratch.
func TestSchedulerIterationAllocationBudget(t *testing.T) {
	if testsupport.Alone(t) {
		return
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
	const slabObjects, slabPages = 3, 4
	opens := float64(sessions*int(cfg.Model.Layers)) / kvcache.DefaultPageSize // page-opens an iteration
	pages := opens * slabObjects / slabPages
	t.Logf("%d-iteration windows of a B=%d fused decode allocated %v objects an iteration (%.2f of them pages)", window, sessions, perIter, pages)
	if best := slices.Min(perIter); best > pages+0.5 {
		t.Errorf("every %d-iteration window allocated more than %.2f objects an iteration: %v", window, pages+0.5, perIter)
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
// lists, and the recorder's spans. The rows mostly come back from dropped
// sessions' pages, so on a 2-vCPU AVX-512 Xeon a whole request measured
// 76–112 KiB over 150 requests at GOMAXPROCS 1, 2 and 4; 108–144 KiB while
// the request body went through a json.Decoder that grew the prompt by
// reallocation, and 960–1,035 KiB when pass-Q's merge tail was cut anew at
// every chunk length. The constant is about twice the most a request
// measured, so a reallocated tail, at 780 KiB a request, cannot pass.
func TestPersistentPrefixRequestAllocationBudget(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const prefix, suffix, out, warm, measured, perRequestKiB = 1536, 256, 32, 2, 5, 225.0
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Kernel scratch is per slot, each rank's own and each pool worker's,
	// grown to a budget-sized call of the model as the rank engines start,
	// so no request grows it, at any worker count.
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

// thinConfig is the long-context shape of ROADMAP item 6: one layer, two
// query heads sharing one KV head of dimension 8.
func thinConfig() transformer.Config {
	return transformer.Config{
		Model: model.Config{
			Name: "thin", Layers: 1, ModelDim: 16, FFNDim: 32,
			NumHeads: 2, NumKV: 1, HeadDim: 8, VocabSize: 512,
			ElemBytes: 2, Params: 1e4,
		},
		RoPEBase: 10000, NormEps: 1e-5, Seed: 1,
	}
}

// servedPrompt is a no_cache request of session 1 through the handler: a
// /v1/prefill of prompt, a /v1/generate continuation of out tokens and a
// DELETE. It returns the bytes the process allocated from the prefill's
// arrival on.
func servedPrompt(t *testing.T, h http.Handler, prompt []int, out int) uint64 {
	t.Helper()
	const session = 1
	body, err := json.Marshal(prefillRequest{Session: session, Tokens: prompt, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	call := func(method, path string, body []byte, reply any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		if reply != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var pre prefillResponse
	call(http.MethodPost, "/v1/prefill", body, &pre)
	gen, err := json.Marshal(generateRequest{Session: session, Prompt: []int{pre.NextToken}, MaxTokens: out, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var res generateResponse
	call(http.MethodPost, "/v1/generate", gen, &res)
	if len(res.Tokens) != out {
		t.Fatalf("session %d generated %d tokens, want %d", session, len(res.Tokens), out)
	}
	call(http.MethodDelete, fmt.Sprintf("/v1/session/%d", session), nil, nil)
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A served prompt allocates what its session keeps plus a constant share a
// token, whatever its length. Two in-process ranks serve the thin config in
// 512-token chunks; each request is a no_cache /v1/prefill, a 4-token
// /v1/generate and a DELETE. Two 16k-token requests first grow every
// buffer that scales with the context (the pass-KV send buffers, the
// attention scratch), and each length gets one warm-up, so KV pages come
// back recycled; the figure for a length is the least of three requests,
// since the recorder's span store takes a new 20 KiB block every few
// requests. What is left a prompt token is the request body (about 4
// bytes), the decoded token list (8) and per-chunk spans and plans. On a
// 2-vCPU AVX-512 Xeon the requests measured 82.6, 76.2, 75.8 and 72.8 B a
// token at 2k, 4k, 8k and 16k tokens while a json.Decoder grew the token
// list and its read buffer by reallocation and the session's history
// copied the prompt chunk by chunk; after, 25.7, 20.3, 17.6 and 16.3. The
// budget is a quarter over the largest, 32 B, which history alone (8 B a
// token, more while it doubled) breaks at 2k; and the 16k figure may not
// exceed the 2k one by more than 2 B, so nothing that grows with the
// context may creep in.
func TestPromptAllocatesWhatItKeeps(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const out, budget, eps = 4, 32.0, 2.0
	// Kernel scratch is per slot, as TestPersistentPrefixRequestAllocationBudget
	// says.
	cfg := thinConfig()
	srv, err := New(Config{Transformer: cfg, Ranks: 2, TokenBudget: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	prompt := func(n int) []int {
		p := make([]int, n)
		for j := range p {
			p[j] = (j*7 + n + 1) % cfg.Model.VocabSize
		}
		return p
	}
	sizes := []int{2048, 4096, 8192, 16384}
	largest := prompt(sizes[len(sizes)-1])
	servedPrompt(t, h, largest, out)
	servedPrompt(t, h, largest, out)
	perTok := make([]float64, len(sizes))
	for i, n := range sizes {
		p := prompt(n)
		servedPrompt(t, h, p, out)
		least := servedPrompt(t, h, p, out)
		for range 2 {
			least = min(least, servedPrompt(t, h, p, out))
		}
		perTok[i] = float64(least) / float64(n)
	}
	t.Logf("a served prompt of %v tokens allocated %.1f B a token", sizes, perTok)
	for i, b := range perTok {
		if b > budget {
			t.Errorf("a %d-token prompt allocated %.1f B a token, budget %.0f", sizes[i], b, budget)
		}
	}
	if last := perTok[len(perTok)-1]; last > perTok[0]+eps {
		t.Errorf("a %d-token prompt allocated %.1f B a token, more than the %d-token one's %.1f + %.0f",
			sizes[len(sizes)-1], last, sizes[0], perTok[0], eps)
	}
}

// A Content-Length header is a hint, not a promise: a /v1/prefill that
// declares 1 GiB and sends a short body is answered as the same body with
// its true length is, and allocates less than 1 MiB on the way.
func TestContentLengthIsAHint(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, err := New(Config{Transformer: thinConfig(), Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"session":1,"tokens":[5,6,7,8,9],"no_cache":true}`)
	prefill := func(declared int64) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/prefill", bytes.NewReader(body))
		if declared > 0 {
			req.ContentLength = declared
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/session/1", nil))
		return rec.Code, rec.Body.String()
	}
	wantCode, want := prefill(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	code, got := prefill(1 << 30)
	runtime.ReadMemStats(&m1)
	if code != wantCode || got != want {
		t.Errorf("declared 1 GiB: %d %s, want %d %s", code, got, wantCode, want)
	}
	if kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024; kib >= 1024 {
		t.Errorf("a %d-byte body declared as 1 GiB allocated %.0f KiB", len(body), kib)
	} else {
		t.Logf("a %d-byte body declared as 1 GiB allocated %.0f KiB", len(body), kib)
	}
}

// BenchmarkServedPrefill is prefill_full's prompt through the handler: a
// warm no_cache /v1/prefill of 2048 tokens on the registered benchmark's
// configuration, then a DELETE. B/op over 2048 is the per-token figure
// TestPromptAllocatesWhatItKeeps bounds on the thin config.
func BenchmarkServedPrefill(b *testing.B) {
	const tokens = 2048
	cfg := benchGQA8()
	srv, err := New(Config{Transformer: cfg, Ranks: 2, Variant: model.Auto, TokenBudget: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	prompt := make([]int, tokens)
	for i := range prompt {
		prompt[i] = (i*7 + 1) % cfg.Model.VocabSize
	}
	body, err := json.Marshal(prefillRequest{Session: 1, Tokens: prompt, NoCache: true})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/prefill", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("prefill: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/session/1", nil))
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
}
