package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// TestStatsHammerUnderTraffic is the ISSUE's lock-discipline pin: /v1/stats
// — comm block (per-link modeled + wire counters), kernel block, and the
// new recovery block — is hammered concurrently with prefill/decode traffic
// and fail-link churn. Run under -race (the CI race job does), any unlocked
// counter access surfaces here.
//
// Two deployments, because the counters live in different places: the
// in-process subtest churns injected link faults through full recovery
// cycles (recovery bookkeeping racing stats snapshots), and the distributed
// subtest reads TCP per-link wire counters while worker heartbeat and
// reader goroutines advance them.
func TestStatsHammerUnderTraffic(t *testing.T) {
	hammer := func(t *testing.T, srv *Server, failLink bool) {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		stop := make(chan struct{})
		var wg sync.WaitGroup

		// Traffic: short overlapping generates across a few sessions.
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					prompt := []int{1 + g, 2, 3 + i%5, 4, 5, 6, 7, 8}
					_, _ = srv.Scheduler().Generate(context.Background(), 100+g, prompt, 4)
					srv.Scheduler().Release(100 + g)
				}
			}(g)
		}
		// Stats hammer: parse the full block every time so any torn field
		// also breaks decoding, not just the race detector.
		for h := 0; h < 4; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err != nil {
						continue
					}
					var body statsResponse
					_ = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
				}
			}()
		}
		// Observability hammer: scrape the Prometheus exposition and both
		// trace exports concurrently with traffic and recovery churn. Every
		// 200 body must parse/validate — a torn histogram or half-merged
		// span batch breaks the in-tree parsers, not just the race detector.
		// Non-200s are fine: a scrape can land mid-recovery on a poisoned
		// control plane.
		for h := 0; h < 2; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					url := ts.URL + "/metrics"
					if i%3 == 1 {
						url = ts.URL + "/v1/trace"
					} else if i%3 == 2 {
						url = ts.URL + "/v1/trace?format=jsonl"
					}
					resp, err := http.Get(url)
					if err != nil {
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						continue
					}
					switch i % 3 {
					case 0:
						if _, err := trace.ParseProm(bytes.NewReader(body)); err != nil {
							t.Errorf("/metrics under churn: %v", err)
						}
					case 1:
						if err := trace.ValidateChromeTrace(body); err != nil {
							t.Errorf("/v1/trace under churn: %v", err)
						}
					}
				}
			}()
		}
		// Fault churn: inject link failures; recovery heals them by
		// rebuilding, then the next injection fails the fresh epoch.
		if failLink {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					case <-time.After(60 * time.Millisecond):
						srv.Scheduler().WithCluster(func(c *transformer.Cluster) { c.FailLink(0, 1) })
					}
				}
			}()
		}
		time.Sleep(700 * time.Millisecond)
		close(stop)
		wg.Wait()
	}

	t.Run("in-process-with-recovery-churn", func(t *testing.T) {
		srv, err := New(Config{
			Transformer:   transformer.Tiny(51),
			Ranks:         2,
			Variant:       model.Auto,
			TokenBudget:   8,
			RecvTimeout:   300 * time.Millisecond,
			Recover:       true,
			MaxRecoveries: 1 << 20, // churn through many rebuilds
		})
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, srv, true)
	})

	t.Run("distributed-wire-counters", func(t *testing.T) {
		cfg := transformer.Tiny(53)
		addrs := startWorkers(t, cfg, 2)
		srv, err := New(Config{
			Transformer: cfg,
			RankAddrs:   addrs,
			Variant:     model.PassKV,
			TokenBudget: 8,
			DialTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, srv, false)
	})
}

// A reply comes after its iteration is counted: a client that reads the
// batch stats as its request returns finds the prefill chunks and decode
// steps the request ran already in them. Four clients each run 25 short
// generate requests (one 4-token chunk, then 2 decode steps) while a fifth
// keeps prefilling 64-token prompts, 16 chunks each, so most iterations
// are mixed and the decode side, holding the older requests, runs first:
// a request that completes on it is answered while the same iteration's
// prefill chunk still runs. After each reply a client adds its request's
// chunks and steps to shared totals and then reads the stats, which must
// hold at least those totals, since every added request has replied.
func TestRepliesFollowTheirIterationStats(t *testing.T) {
	const clients, requests, budget, maxTokens, long = 4, 25, 4, 3, 64
	w, err := transformer.NewWeights(transformer.Tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cluster, SchedulerConfig{TokenBudget: budget, PrefixCacheTokens: -1})
	defer s.Close()
	var chunks, steps atomic.Int64
	replied := func(who string, c, d int64) {
		wantChunks, wantSteps := chunks.Add(c), steps.Add(d)
		if st := s.BatchStats(); st.PrefillChunks < wantChunks || st.DecodeTokens < wantSteps {
			t.Errorf("%s replied before its iteration was counted: stats hold %d chunks and %d decode steps, replies so far %d and %d",
				who, st.PrefillChunks, st.DecodeTokens, wantChunks, wantSteps)
		}
	}
	stop := make(chan struct{})
	prefilled := make(chan struct{})
	go func() {
		defer close(prefilled)
		prompt := make([]int, long)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range prompt {
				prompt[j] = 1 + (i+j)%40
			}
			if _, err := s.PrefillWith(context.Background(), 50, prompt, RequestOptions{}); err != nil {
				t.Errorf("long prefill: %v", err)
				return
			}
			replied("a long prefill", long/budget, 0)
			s.Release(50)
		}
	}()
	var wg sync.WaitGroup
	for g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range requests {
				res, err := s.Generate(context.Background(), g+1, []int{1 + g, 2, 3 + i%5, 4}, maxTokens)
				if err != nil {
					t.Errorf("client %d request %d: %v", g, i, err)
					return
				}
				if len(res.Tokens) != maxTokens {
					t.Errorf("client %d request %d: %d tokens, want %d", g, i, len(res.Tokens), maxTokens)
					return
				}
				replied("a generate", 1, maxTokens-1)
				s.Release(g + 1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-prefilled
}
