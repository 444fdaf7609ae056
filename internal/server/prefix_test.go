package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transformer"
)

// newManualPrefixScheduler builds a step-driven scheduler with prefix reuse
// sized for tests, optionally over a capacity-capped cluster.
func newManualPrefixScheduler(t *testing.T, cfg SchedulerConfig, copts ...transformer.ClusterOption) *Scheduler {
	t.Helper()
	w, err := transformer.NewWeights(transformer.Tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.NewCluster(w, 2, copts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Manual = true
	s := NewScheduler(cluster, cfg)
	t.Cleanup(s.Close)
	return s
}

func prefillSync(t *testing.T, s *Scheduler, session int, prompt []int, opts RequestOptions) int {
	t.Helper()
	var next int
	var err error
	done := make(chan struct{})
	go func() { defer close(done); next, err = s.PrefillWith(context.Background(), session, prompt, opts) }()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestPrefixReuseWarmReconnect: a released session's canonical prefix lands
// in the tree; the same session reconnecting — and a sibling sharing the
// prompt — adopt it and produce the same next token, with hit telemetry to
// prove the KV was reused rather than recomputed.
func TestPrefixReuseWarmReconnect(t *testing.T) {
	s := newManualPrefixScheduler(t, SchedulerConfig{TokenBudget: 4, PrefixCacheTokens: 4096})
	prompt := []int{7, 3, 60, 12, 9, 33, 2, 41, 18, 5} // 10 tokens → canonical 8
	next1 := prefillSync(t, s, 5, prompt, RequestOptions{})
	if r := s.Reuse(); r.Lookups != 1 || r.Hits != 0 || r.ComputedTokens != 10 {
		t.Fatalf("cold reuse stats = %+v", r)
	}
	s.Release(5)
	if st, ok := s.PrefixStats(); !ok || st.Tokens != 8 || st.Nodes != 2 {
		t.Fatalf("tree after detach = %+v ok=%v, want 8 tokens / 2 nodes", st, ok)
	}
	if r := s.Reuse(); r.Detached != 1 || r.DetachedTokens != 8 {
		t.Fatalf("detach stats = %+v", r)
	}

	// Reconnect: the longest block-aligned prefix (8 of 10) is adopted.
	next2 := prefillSync(t, s, 5, prompt, RequestOptions{})
	if next2 != next1 {
		t.Fatalf("warm reconnect next token %d != cold %d", next2, next1)
	}
	r := s.Reuse()
	if r.Hits != 1 || r.CachedTokens != 8 {
		t.Fatalf("warm reuse stats = %+v", r)
	}
	if r.ComputedTokens != 12 { // 10 cold + 2 miss-suffix
		t.Fatalf("computed tokens = %d, want 12", r.ComputedTokens)
	}

	// Sibling session sharing the prompt hits the same prefix.
	next3 := prefillSync(t, s, 6, prompt, RequestOptions{})
	if next3 != next1 {
		t.Fatalf("sibling next token %d != cold %d", next3, next1)
	}
	if r := s.Reuse(); r.Hits != 2 || r.CachedTokens != 16 {
		t.Fatalf("sibling reuse stats = %+v", r)
	}
}

// TestPrefixReuseGenerateBitIdentical: the full generate stream (prefill +
// decode) of a warm reconnect matches the cold stream token for token — the
// scheduler-level form of the exact-equality guarantee.
func TestPrefixReuseGenerateBitIdentical(t *testing.T) {
	w, err := transformer.NewWeights(transformer.Tiny(321))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cluster, SchedulerConfig{TokenBudget: 4, PrefixCacheTokens: 4096})
	defer s.Close()
	prompt := []int{11, 4, 27, 9, 33, 2, 58, 17, 40, 12, 21, 5} // 12 tokens, canonical 12
	cold, err := s.Generate(context.Background(), 3, prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(3)
	warm, err := s.Generate(context.Background(), 3, prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Tokens) != len(cold.Tokens) {
		t.Fatalf("stream lengths differ: %v vs %v", warm.Tokens, cold.Tokens)
	}
	for i := range cold.Tokens {
		if warm.Tokens[i] != cold.Tokens[i] {
			t.Fatalf("warm stream %v != cold stream %v", warm.Tokens, cold.Tokens)
		}
	}
	if r := s.Reuse(); r.Hits != 1 || r.CachedTokens != 8 {
		t.Fatalf("reuse stats = %+v, want one 8-token hit", r)
	}
}

// TestPrefixOptOut: no_cache requests neither read the tree nor donate to it.
func TestPrefixOptOut(t *testing.T) {
	s := newManualPrefixScheduler(t, SchedulerConfig{TokenBudget: 4, PrefixCacheTokens: 4096})
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	prefillSync(t, s, 1, prompt, RequestOptions{})
	s.Release(1)
	st, _ := s.PrefixStats()
	if st.Tokens != 8 {
		t.Fatalf("tree tokens = %d, want 8", st.Tokens)
	}
	// Opted-out request: no lookup, full recompute.
	prefillSync(t, s, 2, prompt, RequestOptions{NoPrefixCache: true})
	if r := s.Reuse(); r.Hits != 0 || r.CachedTokens != 0 || r.Lookups != 1 {
		t.Fatalf("opt-out reuse stats = %+v", r)
	}
	// Opted-out sessions never donate on release.
	s.Release(2)
	if st, _ := s.PrefixStats(); st.Tokens != 8 {
		t.Fatalf("opted-out session donated: tree tokens = %d", st.Tokens)
	}
	// A normal request still hits the original donor's prefix.
	prefillSync(t, s, 3, append(append([]int{}, prompt...), 9, 10), RequestOptions{})
	if r := s.Reuse(); r.Hits != 1 || r.CachedTokens != 8 {
		t.Fatalf("post-opt-out reuse stats = %+v", r)
	}
}

// TestAutoVariantPerChunk: under model.Auto the scheduler picks pass-KV for
// the cold first chunk (miss rate 1) and pass-Q once cached context exists
// (Tiny's Eq. 1 threshold is 2·NKV/NH = 1).
func TestAutoVariantPerChunk(t *testing.T) {
	s := newManualPrefixScheduler(t, SchedulerConfig{TokenBudget: 4, Variant: model.Auto, PrefixCacheTokens: 4096})
	prompt := []int{3, 14, 15, 9, 26, 5, 35, 8}
	next := prefillSync(t, s, 1, prompt, RequestOptions{})
	r := s.Reuse()
	if r.PassKVChunks != 1 || r.PassQChunks != 1 {
		t.Fatalf("variant chunks = %+v, want 1 pass-KV (cold) + 1 pass-Q (warm)", r)
	}
	// Warm reconnect: every chunk has cached context → pass-Q only.
	s.Release(1)
	next2 := prefillSync(t, s, 1, prompt, RequestOptions{})
	if next2 != next {
		t.Fatalf("auto warm next token %d != cold %d", next2, next)
	}
	r = s.Reuse()
	if r.PassKVChunks != 1 || r.PassQChunks != 2 {
		t.Fatalf("variant chunks after warm = %+v", r)
	}
}

// TestDecodeCapacityQuarantineOffenderOnly: an ErrCapacity surfacing for one
// session of a fused batch quarantines exactly that session; the rest of the
// batch decodes in the same iteration.
func TestDecodeCapacityQuarantineOffenderOnly(t *testing.T) {
	// Two ids whose step-0 decode tokens land on the same owner rank.
	a, b := -1, -1
search:
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			if transformer.DecodeOwnerRank(i, 0, 2) == transformer.DecodeOwnerRank(j, 0, 2) {
				a, b = i, j
				break search
			}
		}
	}
	s := newManualPrefixScheduler(t, SchedulerConfig{PrefixCacheTokens: 4096},
		transformer.WithKVCapacity(5))
	prompt := []int{1, 2, 3, 4} // 2 rows per rank per layer
	na := prefillSync(t, s, a, prompt, RequestOptions{})
	nb := prefillSync(t, s, b, prompt, RequestOptions{})

	var wg sync.WaitGroup
	var errA, errB error
	var decA int
	wg.Add(1)
	go func() { defer wg.Done(); decA, errA = s.Decode(context.Background(), a, na) }()
	waitDepths(t, s, 0, 0, 1) // pin batch order: a first, b offends
	wg.Add(1)
	go func() { defer wg.Done(); _, errB = s.Decode(context.Background(), b, nb) }()
	waitDepths(t, s, 0, 0, 2)
	rep, ok := s.Step()
	if !ok {
		t.Fatal("no work ran")
	}
	drain(s)
	wg.Wait()
	// The owner rank had room for one append: the batch-order survivor
	// decodes, the offender fails with the capacity fault.
	if errA != nil {
		t.Fatalf("survivor's decode poisoned: %v", errA)
	}
	if decA < 0 {
		t.Fatalf("decA = %d", decA)
	}
	var execErr *ExecError
	if !errors.As(errB, &execErr) {
		t.Fatalf("offender error = %v, want ExecError", errB)
	}
	if len(rep.DecodeSessions) != 1 || rep.DecodeSessions[0] != a {
		t.Fatalf("iteration decoded %v, want [%d]", rep.DecodeSessions, a)
	}
	if !resident(s, a) || resident(s, b) {
		t.Fatalf("residency after capacity fault: a=%v b=%v", resident(s, a), resident(s, b))
	}
	if r := s.Reuse(); r.CapacityQuarantines != 1 {
		t.Fatalf("capacity quarantines = %d, want 1", r.CapacityQuarantines)
	}
}

// TestStatsPrefillSource: /v1/stats reports the cached-vs-computed prefill
// breakdown, reuse telemetry, and the prefix tree snapshot, and the HTTP
// no_cache flag opts a request out end to end.
func TestStatsPrefillSource(t *testing.T) {
	srv, err := New(Config{
		Transformer:       transformer.Tiny(321),
		Ranks:             2,
		Variant:           model.Auto,
		TokenBudget:       4,
		PrefixCacheTokens: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	prompt := []int{5, 6, 7, 8, 9, 10, 11, 12}
	post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 1, Tokens: prompt}, nil)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 2, Tokens: prompt}, nil)
	// Opted-out request recomputes everything.
	post(t, ts.URL+"/v1/prefill", prefillRequest{Session: 3, Tokens: prompt, NoCache: true}, nil)

	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Variant != "auto" {
		t.Fatalf("variant = %q", st.Variant)
	}
	if st.PrefillSource.CachedTokens != 4 || st.PrefillSource.ComputedTokens != 20 {
		t.Fatalf("prefill source = %+v, want 4 cached / 20 computed", st.PrefillSource)
	}
	if hr := st.PrefillSource.HitRate; hr <= 0.16 || hr >= 0.17 {
		t.Fatalf("hit rate = %v, want 4/24", hr)
	}
	if st.PrefixCache == nil || st.PrefixCache.Tokens != 8 || st.PrefixCache.BlockSize != 4 {
		t.Fatalf("prefix cache stats = %+v", st.PrefixCache)
	}
	if st.Reuse.Hits != 1 || st.Reuse.Detached != 1 {
		t.Fatalf("reuse stats = %+v", st.Reuse)
	}
}

// A no_cache opt-out belongs to the session, not to its id. Session 5
// prefills with no_cache and is released; a new session 5, no_cache too, is
// admitted while the release's drop still waits for the cluster. Neither
// records a canonical prefix, and neither donates KV: the drop of the first
// must not clear the second's opt-out.
func TestNoCacheOptOutSurvivesSameIDReadmission(t *testing.T) {
	s := newManualPrefixScheduler(t, SchedulerConfig{TokenBudget: 4, PrefixCacheTokens: 4096})
	prompt := []int{7, 3, 60, 12, 9, 33, 2, 41, 18, 5} // 10 tokens → canonical 8
	noCache := RequestOptions{NoPrefixCache: true}
	prefillSync(t, s, 5, prompt, noCache)
	hold, held := make(chan struct{}), make(chan struct{})
	go s.WithCluster(func(*transformer.Cluster) { close(held); <-hold })
	<-held
	released := make(chan struct{})
	go func() { s.Release(5); close(released) }()
	for s.Known(5) {
		time.Sleep(time.Millisecond)
	}
	errc := make(chan error, 1)
	enqueue(s, func() {
		_, err := s.PrefillWith(context.Background(), 5, prompt, noCache)
		errc <- err
	})
	close(hold)
	<-released
	drain(s)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	hist := len(s.sessions[5].history)
	s.mu.Unlock()
	if hist != 0 {
		t.Errorf("a no_cache session recorded %d canonical tokens", hist)
	}
	s.Release(5)
	if r := s.Reuse(); r.Detached != 0 || r.DetachedTokens != 0 {
		t.Errorf("no_cache sessions donated KV: %+v", r)
	}
}
