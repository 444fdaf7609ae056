// Command cploadgen generates cohort workload traces (tracev2) and replays
// them against a live cpserve, producing the BENCH_serving.json end-to-end
// serving SLO report.
//
// Generate a deterministic trace (same seed + spec -> byte-identical file):
//
//	cploadgen -gen -seed 1 -rps 200 -duration 2s -out trace.jsonl
//
// Replay it against a server and write the benchmark report:
//
//	cploadgen -replay -trace trace.jsonl -base http://localhost:8080 -bench-out BENCH_serving.json
//
// With no -base, the replay spins up an in-process server (flags -ranks,
// -model-seed, -token-budget, -max-batch configure it) — the self-contained
// form CI uses. -speed compresses the trace's timeline (10 = 10x faster)
// without changing the request set.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cploadgen: ")
	var (
		gen    = flag.Bool("gen", false, "generate a tracev2 file from a seeded cohort spec")
		replay = flag.Bool("replay", false, "replay a tracev2 file against a server and emit BENCH_serving.json")

		// Generate flags.
		out         = flag.String("out", "trace.jsonl", "trace output path (-gen)")
		seed        = flag.Int64("seed", 1, "trace generator seed (-gen)")
		rps         = flag.Float64("rps", 100, "session arrival rate (-gen; pattern base rate)")
		duration    = flag.Duration("duration", 2*time.Second, "trace duration (-gen)")
		maxSessions = flag.Int("max-sessions", 0, "cap generated sessions, 0 = uncapped (-gen)")
		vocab       = flag.Int("vocab", 64, "token vocabulary bound; must match the serving model (-gen)")
		pattern     = flag.String("pattern", "steady", "arrival pattern: steady, diurnal, bursty (-gen)")
		peak        = flag.Float64("peak-rps", 0, "peak rate for diurnal/bursty patterns (0 = 4x -rps)")

		// Replay flags.
		tracePath = flag.String("trace", "trace.jsonl", "trace input path (-replay)")
		base      = flag.String("base", "", "server base URL; empty starts an in-process server (-replay)")
		benchOut  = flag.String("bench-out", "BENCH_serving.json", "serving report output path (-replay)")
		speed     = flag.Float64("speed", 1, "timeline compression factor: 10 replays a 10s trace in 1s (-replay)")
		reqTO     = flag.Int("request-timeout-ms", 0, "per-request timeout_ms forwarded to the server, 0 = none (-replay)")

		// In-process server flags (replay with no -base).
		ranks       = flag.Int("ranks", 2, "in-process server CP ranks")
		modelSeed   = flag.Int64("model-seed", 1, "in-process server weight seed")
		tokenBudget = flag.Int("token-budget", 32, "in-process server prefill token budget per iteration")
		maxBatch    = flag.Int("max-batch", 64, "in-process server decode batch cap")
	)
	flag.Parse()

	switch {
	case *gen == *replay:
		log.Fatal("exactly one of -gen or -replay required")
	case *gen:
		if err := runGen(*out, *seed, *vocab, *rps, *peak, *pattern, *duration, *maxSessions); err != nil {
			log.Fatal(err)
		}
	case *replay:
		if *speed <= 0 {
			log.Fatal("-speed must be > 0")
		}
		if err := runReplay(*tracePath, *base, *benchOut, *speed, *reqTO,
			*ranks, *modelSeed, *tokenBudget, *maxBatch); err != nil {
			log.Fatal(err)
		}
	}
}

func runGen(out string, seed int64, vocab int, rps, peak float64, pattern string, dur time.Duration, maxSessions int) error {
	spec := workload.DefaultTraceSpec(seed, vocab, rps, dur.Microseconds())
	if peak <= 0 {
		peak = 4 * rps
	}
	switch pattern {
	case "steady":
	case "diurnal":
		spec.Arrivals = workload.Diurnal(rps, peak, dur.Microseconds())
	case "bursty":
		spec.Arrivals = workload.Bursty(rps, peak, dur.Microseconds(),
			dur.Microseconds()/4, dur.Microseconds()/16)
	default:
		return fmt.Errorf("unknown -pattern %q (steady, diurnal, bursty)", pattern)
	}
	spec.MaxSessions = maxSessions
	tr, err := workload.GenerateTrace(spec)
	if err != nil {
		return err
	}
	if err := workload.WriteTraceFile(out, tr); err != nil {
		return err
	}
	log.Printf("wrote %s: %d requests, %d sessions, cohorts %v",
		out, tr.Requests(), tr.Sessions(), tr.CohortCounts())
	return nil
}

// generateResponse mirrors the server's /v1/generate reply; the server
// measures TTFT and per-token gaps itself, the driver measures end-to-end.
type generateResponse struct {
	Tokens []int     `json:"tokens"`
	TTFTMs float64   `json:"ttft_ms"`
	TTITMs []float64 `json:"ttit_ms"`
}

func runReplay(tracePath, base, benchOut string, speed float64, reqTO, ranks int, modelSeed int64, tokenBudget, maxBatch int) error {
	tr, err := workload.ReadTraceFile(tracePath)
	if err != nil {
		return err
	}
	if err := workload.ValidateTrace(tr); err != nil {
		return err
	}

	if base == "" {
		srv, err := server.New(server.Config{
			Transformer: transformer.Tiny(modelSeed),
			Ranks:       ranks,
			Variant:     model.PassKV,
			TokenBudget: tokenBudget,
			MaxBatch:    maxBatch,
			Cohorts:     tr.Spec.CohortNames(),
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		log.Printf("in-process server: %d ranks, budget %d tok/iter, batch<=%d",
			ranks, tokenBudget, maxBatch)
	}

	// One goroutine per session: turn 0 fires at its (speed-scaled) arrival
	// offset, later turns chain closed-loop — think-time gap after the
	// previous turn finishes — while sessions stay open-loop to each other.
	bySession := map[int][]workload.TraceEvent{}
	var sessions []int
	for _, ev := range tr.Events {
		if len(bySession[ev.Session]) == 0 {
			sessions = append(sessions, ev.Session)
		}
		bySession[ev.Session] = append(bySession[ev.Session], ev)
	}

	client := &http.Client{}
	results := make([]workload.RequestResult, len(tr.Events)) // dense ids: index == ev.ID
	start := time.Now()
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func(sess int, evs []workload.TraceEvent) {
			defer wg.Done()
			for _, ev := range evs {
				if ev.Turn == 0 {
					at := time.Duration(float64(ev.AtUs)/speed) * time.Microsecond
					time.Sleep(time.Until(start.Add(at)))
				} else if ev.GapUs > 0 {
					time.Sleep(time.Duration(float64(ev.GapUs)/speed) * time.Microsecond)
				}
				results[ev.ID] = issue(client, base, ev, reqTO)
			}
			release(client, base, sess)
		}(sess, bySession[sess])
	}
	wg.Wait()
	durMs := float64(time.Since(start).Microseconds()) / 1e3

	rep := workload.BuildServingReport(tr, results, durMs, time.Now().Unix())
	if err := workload.ValidateServingReport(rep); err != nil {
		return fmt.Errorf("built report fails its own validation: %w", err)
	}
	if err := workload.WriteServingReport(benchOut, rep); err != nil {
		return err
	}
	log.Printf("wrote %s: %d requests (%d completed, %d shed, %d timeout, %d error) in %.0f ms, %.1f req/s, %.1f tok/s",
		benchOut, rep.Totals.Requests, rep.Totals.Completed, rep.Totals.Shed, rep.Totals.Timeouts,
		rep.Totals.Errors, rep.DurationMs, rep.Throughput.RequestsPerSec, rep.Throughput.OutputTokPerSec)
	for _, c := range rep.Cohorts {
		log.Printf("  %-14s %4d req  ttft p50/p99 %.1f/%.1f ms  itl p50 %.2f ms  e2e p99 %.1f ms  slo met=%v",
			c.Cohort, c.Requests, c.TTFT.P50Ms, c.TTFT.P99Ms, c.ITL.P50Ms, c.E2E.P99Ms, c.SLO.Met)
	}
	return nil
}

// issue replays one trace event as a /v1/generate call, tagging it with its
// cohort and trace id, and returns the measured outcome.
func issue(client *http.Client, base string, ev workload.TraceEvent, reqTO int) workload.RequestResult {
	res := workload.RequestResult{ID: ev.ID, Cohort: ev.Cohort}
	body, _ := json.Marshal(map[string]any{
		"session":    ev.Session,
		"prompt":     ev.Prompt,
		"max_tokens": ev.MaxTokens,
		"cohort":     ev.Cohort,
		"timeout_ms": reqTO,
	})
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		res.E2EMs = float64(time.Since(t0).Microseconds()) / 1e3
		return res // Status 0 counts as an error in the report
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.E2EMs = float64(time.Since(t0).Microseconds()) / 1e3
	res.Status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var gr generateResponse
		if json.Unmarshal(b, &gr) == nil {
			res.TTFTMs = gr.TTFTMs
			res.ITLMs = gr.TTITMs
			res.OutputTokens = len(gr.Tokens)
		}
	}
	return res
}

// release frees the replayed session server-side so resident sessions do not
// accumulate across the run; failures are harmless (the session may already
// be gone, or the server may have shed every turn).
func release(client *http.Client, base string, sess int) {
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/session/%d", base, sess), nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
