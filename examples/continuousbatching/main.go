// Continuousbatching: a load driver for the iteration-level serving engine.
// Many concurrent clients stream generate requests through the full HTTP
// stack at once; the scheduler fuses one token-budget prefill chunk plus
// every active session's decode step into each iteration, so the CP ring
// serves the whole population per sweep instead of idling between requests
// (§3.6 batched decode, §4.3 deployment guidance). Clients split into two
// workload cohorts — interactive "chat" (short prompts) and batchy
// "summarization" (long prompts) — and tag their requests, so the engine's
// per-cohort latency series separate the two populations. The driver then
// verifies every stream against its single-session serial reference and
// prints the batching telemetry plus per-cohort quantiles.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transformer"
)

const (
	ranks     = 2
	seed      = 77
	clients   = 8
	maxTokens = 16
	budget    = 8 // small budget → prompts admit in slices, decodes never starve

	// Two cohorts with distinct prompt shapes: even clients are interactive
	// chat turns, odd clients are long-document summarizations.
	chatPromptLen = 16
	summPromptLen = 40
)

// cohortOf assigns a client its workload cohort.
func cohortOf(id int) string {
	if id%2 == 0 {
		return "chat"
	}
	return "summarization"
}

type genReq struct {
	Session   int    `json:"session"`
	Prompt    []int  `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
	Cohort    string `json:"cohort"`
}

type genResp struct {
	Tokens []int     `json:"tokens"`
	TTFTMs float64   `json:"ttft_ms"`
	TTITMs []float64 `json:"ttit_ms"`
}

func main() {
	srv, err := server.New(server.Config{
		Transformer: transformer.Tiny(seed),
		Ranks:       ranks,
		Variant:     model.PassKV,
		TokenBudget: budget,
		Cohorts:     []string{"chat", "summarization"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	prompts := make([][]int, clients)
	for i := range prompts {
		n := chatPromptLen
		if cohortOf(i) == "summarization" {
			n = summPromptLen
		}
		p := make([]int, n)
		for j := range p {
			p[j] = (i*13 + j*7 + 5) % 64
		}
		prompts[i] = p
	}

	fmt.Printf("continuous batching: %d clients (chat %d-tok / summarization %d-tok prompts), %d tokens each, %d CP ranks, budget %d tok/iter\n\n",
		clients, chatPromptLen, summPromptLen, maxTokens, ranks, budget)

	var wg sync.WaitGroup
	results := make([]genResp, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body, _ := json.Marshal(genReq{Session: id, Prompt: prompts[id], MaxTokens: maxTokens, Cohort: cohortOf(id)})
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("session %d: status %d", id, resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[id]); err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Verify every served stream against the serial single-session path.
	w, err := transformer.NewWeights(transformer.Tiny(seed))
	if err != nil {
		log.Fatal(err)
	}
	for i := range prompts {
		c, err := transformer.NewCluster(w, ranks)
		if err != nil {
			log.Fatal(err)
		}
		want, err := c.Generate(i, prompts[i], maxTokens, model.PassKV)
		if err != nil {
			log.Fatal(err)
		}
		for j := range want {
			if results[i].Tokens[j] != want[j] {
				log.Fatalf("session %d diverged from serial reference: %v != %v", i, results[i].Tokens, want)
			}
		}
	}
	fmt.Printf("all %d streams match their single-session serial references\n\n", clients)

	b := srv.Scheduler().BatchStats()
	totalTokens := clients * maxTokens
	fmt.Println("batching telemetry")
	fmt.Println("------------------")
	fmt.Printf("iterations           %6d\n", b.Iterations)
	fmt.Printf("prefill chunks       %6d  (%d prompt tokens)\n", b.PrefillChunks, b.PrefillTokens)
	fmt.Printf("decode steps         %6d\n", b.DecodeTokens)
	fmt.Printf("mixed iterations     %6d  (chunk + decodes in one sweep)\n", b.MixedIterations)
	fmt.Printf("max decode batch     %6d  sessions in one ring pass\n", b.MaxDecodeBatch)
	fmt.Printf("max occupancy        %6d  sessions served by one iteration\n", b.MaxOccupancy)
	fmt.Printf("mean occupancy       %8.1f\n", b.MeanOccupancy())
	fmt.Printf("mean iteration       %8.2f ms\n", b.MeanIterMs())
	fmt.Printf("wall clock           %8.2f ms for %d generated tokens (%.0f tok/s)\n",
		float64(wall.Microseconds())/1000, totalTokens, float64(totalTokens)/wall.Seconds())

	// The same numbers the /metrics and /v1/stats latency surfaces export:
	// streaming log-bucket histograms recorded inside the scheduler, so the
	// quantiles cover every request in the run without storing raw samples.
	rec := srv.Recorder()
	fmt.Println("\nlatency quantiles (from the engine's streaming histograms)")
	fmt.Println("----------------------------------------------------------")
	for _, h := range []struct {
		label string
		name  string
	}{
		{"ttft", "cp_request_ttft_seconds"},
		{"itl", "cp_request_itl_seconds"},
		{"step", "cp_step_seconds"},
	} {
		s := rec.Hist(h.name)
		fmt.Printf("%-5s n=%-4d p50 %7.2f ms   p90 %7.2f ms   p99 %7.2f ms\n",
			h.label, s.HistCount(),
			s.Quantile(0.50)*1000, s.Quantile(0.90)*1000, s.Quantile(0.99)*1000)
	}

	// The cohort tag splits the same histograms per workload class — the
	// series /metrics exports as cp_cohort_*{cohort="..."}.
	fmt.Println("\nper-cohort quantiles (cp_cohort_* series)")
	fmt.Println("-----------------------------------------")
	for _, cohort := range srv.Scheduler().Cohorts() {
		ttft := rec.Hist("cp_cohort_ttft_seconds", trace.L("cohort", cohort))
		if ttft.HistCount() == 0 {
			continue
		}
		itl := rec.Hist("cp_cohort_itl_seconds", trace.L("cohort", cohort))
		e2e := rec.Hist("cp_cohort_e2e_seconds", trace.L("cohort", cohort))
		fmt.Printf("%-14s n=%-3d ttft p50 %7.2f ms   itl p50 %6.2f ms   e2e p99 %7.2f ms\n",
			cohort, ttft.HistCount(),
			ttft.Quantile(0.50)*1000, itl.Quantile(0.50)*1000, e2e.Quantile(0.99)*1000)
	}
	if b.MaxDecodeBatch < 2 {
		log.Fatal("no cross-session batching observed — scheduler regression?")
	}
	fmt.Println("\nevery iteration fused one prompt chunk with the whole decode population:")
	fmt.Println("the ring never idles while prompts stream in, which is the §4.3 deployment")
	fmt.Println("story for serving heavy traffic on a context-parallel cluster.")
}
