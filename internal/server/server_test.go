package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transformer"
)

func newTestServer(t *testing.T, policy Policy) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Transformer: transformer.Tiny(321),
		Ranks:       2,
		Policy:      policy,
		Variant:     model.PassKV,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp
}

func TestGenerateMatchesReference(t *testing.T) {
	_, ts := newTestServer(t, FIFO)
	prompt := []int{4, 19, 22, 7, 31}
	var got generateResponse
	resp := post(t, ts.URL+"/v1/generate",
		generateRequest{Session: 1, Prompt: prompt, MaxTokens: 5}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Tokens) != 5 {
		t.Fatalf("tokens = %v", got.Tokens)
	}
	// Oracle: the same weights generate the same stream.
	w, err := transformer.NewWeights(transformer.Tiny(321))
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.GenerateReference(prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Tokens[i] != want[i] {
			t.Fatalf("served tokens %v != reference %v", got.Tokens, want)
		}
	}
	if got.TTFTMs <= 0 || len(got.TTITMs) != 4 {
		t.Fatalf("latency fields: ttft=%v ttit=%v", got.TTFTMs, got.TTITMs)
	}
}

func TestPrefillDecodeSessionFlow(t *testing.T) {
	_, ts := newTestServer(t, FIFO)
	var pre prefillResponse
	resp := post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 7, Tokens: []int{1, 2, 3}}, &pre)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prefill status %d", resp.StatusCode)
	}
	if pre.SessionLen != 3 {
		t.Fatalf("session len = %d", pre.SessionLen)
	}
	var dec prefillResponse
	resp = post(t, ts.URL+"/v1/decode", decodeRequest{Session: 7, Token: pre.NextToken}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode status %d", resp.StatusCode)
	}
	if dec.SessionLen != 4 {
		t.Fatalf("session len after decode = %d", dec.SessionLen)
	}
	// Multi-turn follow-up against the persistent cache.
	resp = post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 7, Tokens: []int{9, 9}}, &pre)
	if resp.StatusCode != http.StatusOK || pre.SessionLen != 6 {
		t.Fatalf("follow-up: status %d len %d", resp.StatusCode, pre.SessionLen)
	}
}

func TestDecodeUnknownSession(t *testing.T) {
	_, ts := newTestServer(t, FIFO)
	resp := post(t, ts.URL+"/v1/decode", decodeRequest{Session: 99, Token: 1}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, FIFO)
	// Empty prompt.
	resp := post(t, ts.URL+"/v1/generate", generateRequest{Session: 1, MaxTokens: 2}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty prompt: status %d", resp.StatusCode)
	}
	// Out-of-vocab token.
	resp = post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 1, Tokens: []int{99999}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad token: status %d", resp.StatusCode)
	}
	// Bad JSON.
	r, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", r.StatusCode)
	}
	// Wrong method.
	g, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET generate: status %d", g.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, PrefillFirst)
	post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 3, Tokens: []int{5, 6, 7, 8}}, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ranks != 2 || st.Policy != "prefill-first" || st.Sessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	total := 0
	for _, n := range st.RankKV {
		total += n
	}
	// 4 tokens x 2 layers spread over ranks.
	if total != 8 {
		t.Fatalf("rank KV total = %d, want 8", total)
	}
	if st.QueueStats[ClassPrefill].Executed != 1 {
		t.Fatalf("queue stats = %+v", st.QueueStats)
	}
	if st.SessionLens["3"] != 4 {
		t.Fatalf("session lens = %v", st.SessionLens)
	}
	// Continuous-batching telemetry is populated.
	if st.Batch.Iterations < 1 || st.Batch.PrefillChunks != 1 || st.Batch.PrefillTokens != 4 {
		t.Fatalf("batch stats = %+v", st.Batch)
	}
	if st.TokenBudget <= 0 || st.MaxBatch <= 0 || st.MaxSessions <= 0 {
		t.Fatalf("limits unset: %+v", st)
	}
}

func TestSessionDelete(t *testing.T) {
	s, ts := newTestServer(t, FIFO)
	post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 2, Tokens: []int{1}}, nil)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	// Deletion evicted the KV and released the admission slot.
	if s.sched.Active(2) || s.sched.Sessions() != 0 {
		t.Fatal("session 2 still resident after delete")
	}
	// Second delete is a 404.
	resp2, _ := http.DefaultClient.Do(req)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete status %d", resp2.StatusCode)
	}
	// Bad id.
	req3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/abc", nil)
	resp3, _ := http.DefaultClient.Do(req3)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", resp3.StatusCode)
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, FIFO)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var out generateResponse
			resp := post(t, ts.URL+"/v1/generate",
				generateRequest{Session: id, Prompt: []int{id + 1, id + 2, id + 3}, MaxTokens: 3}, &out)
			if resp.StatusCode != http.StatusOK {
				errs[id] = fmt.Errorf("session %d: status %d", id, resp.StatusCode)
				return
			}
			if len(out.Tokens) != 3 {
				errs[id] = fmt.Errorf("session %d: tokens %v", id, out.Tokens)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentServingMatchesReferences drives many goroutine clients
// through the full HTTP stack at once and checks (a) every session's stream
// matches its single-session reference and (b) the scheduler actually fused
// sessions — batch occupancy above one was observed, not assumed.
func TestConcurrentServingMatchesReferences(t *testing.T) {
	s, err := New(Config{
		Transformer: transformer.Tiny(321),
		Ranks:       2,
		Policy:      PrefillFirst,
		Variant:     model.PassKV,
		TokenBudget: 4, // force chunked prefill under load
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	const clients = 6
	const maxTokens = 12
	prompts := make([][]int, clients)
	for i := range prompts {
		p := make([]int, 9)
		for j := range p {
			p[j] = (i*17 + j*5 + 3) % 64
		}
		prompts[i] = p
	}
	// Single-session references: one fresh cluster per session, serial path.
	w, err := transformer.NewWeights(transformer.Tiny(321))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, clients)
	for i := range prompts {
		c, err := transformer.NewCluster(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = c.Generate(i, prompts[i], maxTokens, model.PassKV)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	got := make([][]int, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var out generateResponse
			resp := post(t, ts.URL+"/v1/generate",
				generateRequest{Session: id, Prompt: prompts[id], MaxTokens: maxTokens}, &out)
			if resp.StatusCode != http.StatusOK {
				errs[id] = fmt.Errorf("session %d: status %d", id, resp.StatusCode)
				return
			}
			got[id] = out.Tokens
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("session %d: served %v != single-session reference %v", i, got[i], want[i])
			}
		}
	}
	b := s.sched.BatchStats()
	if b.MaxDecodeBatch < 2 {
		t.Fatalf("no cross-session batching observed: %+v", b)
	}
	if b.MaxOccupancy < 2 {
		t.Fatalf("occupancy never exceeded 1: %+v", b)
	}
}

// newManualScheduler builds a cluster plus a step-driven scheduler so tests
// control exactly what each iteration batches.
func newManualScheduler(t *testing.T, cfg SchedulerConfig) (*Scheduler, *transformer.Weights) {
	t.Helper()
	w, err := transformer.NewWeights(transformer.Tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Manual = true
	s := NewScheduler(cluster, cfg)
	t.Cleanup(s.Close)
	return s, w
}

// drain steps the manual scheduler until it reports no runnable work.
func drain(s *Scheduler) []IterReport {
	var out []IterReport
	for {
		rep, ok := s.Step()
		if !ok {
			return out
		}
		out = append(out, rep)
	}
}

// waitDepths polls until the scheduler's queues reach the wanted shape.
func waitDepths(t *testing.T, s *Scheduler, admit, prefill, decode int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a, p, d := s.QueueDepths()
		if a == admit && p == prefill && d == decode {
			return
		}
		time.Sleep(time.Millisecond)
	}
	a, p, d := s.QueueDepths()
	t.Fatalf("queues stuck at admit=%d prefill=%d decode=%d, want %d/%d/%d", a, p, d, admit, prefill, decode)
}

// TestSchedulerMixedIterationBitIdentical is the acceptance check for the
// continuous-batching engine: ONE scheduler iteration executes a prefill
// chunk AND two concurrent sessions' decode steps fused into a single
// DecodeBatch ring pass, and every emitted token matches the serial
// single-session reference path exactly.
func TestSchedulerMixedIterationBitIdentical(t *testing.T) {
	const budget = 4
	s, w := newManualScheduler(t, SchedulerConfig{Policy: PrefillFirst, TokenBudget: budget})

	promptA := []int{11, 4, 27, 9, 33}
	promptB := []int{2, 58, 17}
	promptC := []int{7, 7, 40, 12, 21, 5, 30, 8} // 8 tokens = 2 chunks of 4

	// Phase 1: prefill sessions A and B through the scheduler.
	var nextA, nextB int
	var wg sync.WaitGroup
	wg.Add(2)
	var errA, errB error
	go func() { defer wg.Done(); nextA, errA = s.Prefill(context.Background(), 1, promptA) }()
	go func() { defer wg.Done(); nextB, errB = s.Prefill(context.Background(), 2, promptB) }()
	waitDepths(t, s, 0, 2, 0)
	drain(s)
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}

	// Phase 2: queue two decodes plus a fresh prefill, then run ONE step.
	var decA, decB, preC int
	var eA, eB, eC error
	wg.Add(3)
	go func() { defer wg.Done(); decA, eA = s.Decode(context.Background(), 1, nextA) }()
	go func() { defer wg.Done(); decB, eB = s.Decode(context.Background(), 2, nextB) }()
	go func() { defer wg.Done(); preC, eC = s.Prefill(context.Background(), 3, promptC) }()
	waitDepths(t, s, 0, 1, 2)

	rep, ok := s.Step()
	if !ok {
		t.Fatal("no work ran")
	}
	if rep.PrefillSession != 3 || rep.PrefillTokens != budget {
		t.Fatalf("iteration did not chunk session 3's prefill: %+v", rep)
	}
	if len(rep.DecodeSessions) != 2 {
		t.Fatalf("iteration fused %d decode sessions, want 2: %+v", len(rep.DecodeSessions), rep)
	}
	if rep.PrefillDone {
		t.Fatalf("8-token prompt finished in one %d-token chunk: %+v", budget, rep)
	}
	if rep.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", rep.Occupancy())
	}
	drain(s)
	wg.Wait()
	if eA != nil || eB != nil || eC != nil {
		t.Fatal(eA, eB, eC)
	}

	// Serial single-session references: fresh cluster per session, same
	// chunk schedule, batch-of-one decode. Results must match exactly —
	// per-sequence owner rotation keeps KV placement, and therefore
	// floating-point merge order, independent of batch composition.
	ref := func(session int, prompt []int) (int, func(tok int) int) {
		c, err := transformer.NewCluster(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		var last [][]float32
		for at := 0; at < len(prompt); at += budget {
			end := at + budget
			if end > len(prompt) {
				end = len(prompt)
			}
			last, err = c.Prefill(session, prompt[at:end], model.PassKV)
			if err != nil {
				t.Fatal(err)
			}
		}
		next := transformer.Argmax(last[len(last)-1])
		return next, func(tok int) int {
			l, err := c.Decode(session, tok)
			if err != nil {
				t.Fatal(err)
			}
			return transformer.Argmax(l)
		}
	}
	refA, stepA := ref(1, promptA)
	refB, stepB := ref(2, promptB)
	refC, _ := ref(3, promptC)
	if nextA != refA || nextB != refB || preC != refC {
		t.Fatalf("prefill next tokens (%d,%d,%d) != references (%d,%d,%d)",
			nextA, nextB, preC, refA, refB, refC)
	}
	if wantA := stepA(nextA); decA != wantA {
		t.Fatalf("session 1 batched decode %d != serial %d", decA, wantA)
	}
	if wantB := stepB(nextB); decB != wantB {
		t.Fatalf("session 2 batched decode %d != serial %d", decB, wantB)
	}
}

func TestSchedulerChunkedPrefill(t *testing.T) {
	s, w := newManualScheduler(t, SchedulerConfig{Policy: FIFO, TokenBudget: 2})
	prompt := []int{3, 14, 15, 9, 26}
	var next int
	var err error
	done := make(chan struct{})
	go func() { defer close(done); next, err = s.Prefill(context.Background(), 1, prompt) }()
	waitDepths(t, s, 0, 1, 0)
	reps := drain(s)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 { // ceil(5/2)
		t.Fatalf("5 tokens at budget 2 took %d iterations, want 3", len(reps))
	}
	ref, err := w.Forward(prompt)
	if err != nil {
		t.Fatal(err)
	}
	if want := transformer.Argmax(ref[len(prompt)-1]); next != want {
		t.Fatalf("chunked prefill next token %d != reference %d", next, want)
	}
	b := s.BatchStats()
	if b.PrefillChunks != 3 || b.PrefillTokens != 5 {
		t.Fatalf("batch stats = %+v", b)
	}
}

func TestSchedulerAdmissionBackpressure(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{MaxSessions: 1})
	// Session 1 occupies the only slot.
	done1 := make(chan struct{})
	go func() { defer close(done1); _, _ = s.Prefill(context.Background(), 1, []int{1, 2}) }()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done1
	// Session 2 must wait for admission.
	var next2 int
	var err2 error
	done2 := make(chan struct{})
	go func() { defer close(done2); next2, err2 = s.Prefill(context.Background(), 2, []int{3, 4}) }()
	waitDepths(t, s, 1, 0, 0)
	if _, ok := s.Step(); ok {
		t.Fatal("admission-blocked work executed")
	}
	// Releasing session 1 admits session 2.
	s.Release(1)
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done2
	if err2 != nil {
		t.Fatal(err2)
	}
	if next2 < 0 {
		t.Fatalf("next2 = %d", next2)
	}
	if s.Sessions() != 1 {
		t.Fatalf("resident sessions = %d, want 1", s.Sessions())
	}
}

func TestSchedulerDecodeUnknownSession(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{})
	if _, err := s.Decode(context.Background(), 42, 1); err == nil {
		t.Fatal("decode for unknown session accepted")
	}
}

func TestSchedulerClosedRejects(t *testing.T) {
	w, err := transformer.NewWeights(transformer.Tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cluster, SchedulerConfig{})
	s.Close()
	if _, err := s.Prefill(context.Background(), 1, []int{1}); err == nil {
		t.Fatal("closed scheduler accepted work")
	}
	if _, err := s.Generate(context.Background(), 1, []int{1}, 2); err == nil {
		t.Fatal("closed scheduler accepted generate")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := New(Config{Transformer: transformer.Tiny(1), Ranks: 0}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	bad := transformer.Tiny(1)
	bad.Model.VocabSize = 0
	if _, err := New(Config{Transformer: bad, Ranks: 1}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

// TestSchedulerReleaseIsolation: releasing a session fails ITS queued work
// immediately and leaves other sessions' requests unharmed — a fused batch
// never sees the dead sequence.
func TestSchedulerReleaseIsolation(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{})
	var wg sync.WaitGroup
	wg.Add(2)
	var n1, n2 int
	go func() { defer wg.Done(); n1, _ = s.Prefill(context.Background(), 1, []int{1, 2, 3}) }()
	go func() { defer wg.Done(); n2, _ = s.Prefill(context.Background(), 2, []int{4, 5, 6}) }()
	waitDepths(t, s, 0, 2, 0)
	drain(s)
	wg.Wait()

	var e1, e2 error
	var d2 int
	wg.Add(2)
	go func() { defer wg.Done(); _, e1 = s.Decode(context.Background(), 1, n1) }()
	go func() { defer wg.Done(); d2, e2 = s.Decode(context.Background(), 2, n2) }()
	waitDepths(t, s, 0, 0, 2)
	s.Release(1)
	a, p, d := s.QueueDepths()
	if a != 0 || p != 0 || d != 1 {
		t.Fatalf("queues after release = %d/%d/%d, want 0/0/1", a, p, d)
	}
	drain(s)
	wg.Wait()
	if e1 == nil {
		t.Fatal("released session's queued decode did not fail")
	}
	if e2 != nil {
		t.Fatalf("unrelated session's decode poisoned: %v", e2)
	}
	if d2 < 0 {
		t.Fatalf("d2 = %d", d2)
	}
	if s.Known(1) || !s.Known(2) {
		t.Fatal("admission slots wrong after release")
	}
}

// TestSchedulerCancelWhileQueued: a client that disconnects while its
// request waits (e.g. parked in admission under backpressure) gets its
// goroutine back and leaves the queues clean.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{MaxSessions: 1})
	done1 := make(chan struct{})
	go func() { defer close(done1); _, _ = s.Prefill(context.Background(), 1, []int{1, 2}) }()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done1

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Generate(ctx, 2, []int{3, 4}, 3)
		errCh <- err
	}()
	waitDepths(t, s, 1, 0, 0) // parked in admission behind session 1
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("canceled request returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request still blocked")
	}
	if a, p, d := s.QueueDepths(); a != 0 || p != 0 || d != 0 {
		t.Fatalf("queues not clean after cancel: %d/%d/%d", a, p, d)
	}
	// The slot holder is unaffected.
	if !s.Known(1) {
		t.Fatal("resident session lost")
	}
}

// TestSchedulerCancelBeforeFirstChunkFreesSlot: an admitted session whose
// client disconnects before any chunk runs must not leak its admission slot.
func TestSchedulerCancelBeforeFirstChunkFreesSlot(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{MaxSessions: 1})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Prefill(ctx, 7, []int{1, 2, 3})
		errCh <- err
	}()
	waitDepths(t, s, 0, 1, 0) // admitted, first chunk not yet run
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("canceled request returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request still blocked")
	}
	if s.Sessions() != 0 || s.Known(7) {
		t.Fatalf("admission slot leaked: sessions=%d known=%v", s.Sessions(), s.Known(7))
	}
	// The freed slot admits the next session.
	done := make(chan struct{})
	go func() { defer close(done); _, _ = s.Prefill(context.Background(), 8, []int{4, 5}) }()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done
	if !s.Active(8) {
		t.Fatal("next session not admitted after freed slot")
	}
}

// TestCloseDrainsInFlightStreams: Close must be bounded by one iteration,
// not by a long client stream — the in-flight generate drains at its next
// step boundary as a successful truncated response (the tokens produced so
// far), never as a lost stream.
func TestCloseDrainsInFlightStreams(t *testing.T) {
	w, err := transformer.NewWeights(transformer.Tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cluster, SchedulerConfig{TokenBudget: 4, MaxTokens: 1 << 20})
	type result struct {
		res *GenerateResult
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		res, err := s.Generate(context.Background(), 1, []int{1, 2, 3}, 1<<20)
		resCh <- result{res, err}
	}()
	// Let the stream get going, then close.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	s.Close()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Close took %v with an in-flight stream", waited)
	}
	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("in-flight generate faulted at Close instead of draining: %v", r.err)
		}
		if len(r.res.Tokens) == 0 || len(r.res.Tokens) >= 1<<20 {
			t.Fatalf("drained stream returned %d tokens, want a truncated non-empty prefix", len(r.res.Tokens))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight generate still blocked after Close")
	}
}
