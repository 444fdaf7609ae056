package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// TestTraceBitIdentity holds the observability layer to reading clocks
// only: a cluster traced and one untraced must agree on every logit, with
// exact float equality.
func TestTraceBitIdentity(t *testing.T) {
	prompt := []int{4, 19, 22, 7, 3, 11, 2, 9, 14, 5}

	t.Run("cluster-logits", func(t *testing.T) {
		run := func(rec *trace.Recorder) ([][]float32, [][]float32) {
			w, err := transformer.NewWeights(transformer.Tiny(7))
			if err != nil {
				t.Fatal(err)
			}
			c, err := transformer.NewCluster(w, 3, transformer.WithTrace(rec))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pre, err := c.Prefill(1, prompt, model.PassKV)
			if err != nil {
				t.Fatal(err)
			}
			var dec [][]float32
			tok := transformer.Argmax(pre[len(pre)-1])
			for step := 0; step < 4; step++ {
				logits, err := c.Decode(1, tok)
				if err != nil {
					t.Fatal(err)
				}
				dec = append(dec, logits)
				tok = transformer.Argmax(logits)
			}
			return pre, dec
		}
		preOn, decOn := run(trace.New())
		preOff, decOff := run(nil)
		exactEqual := func(label string, a, b [][]float32) {
			if len(a) != len(b) {
				t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
			}
			for i := range a {
				if len(a[i]) != len(b[i]) {
					t.Fatalf("%s row %d: %d vs %d floats", label, i, len(a[i]), len(b[i]))
				}
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Fatalf("%s row %d col %d: traced %v != untraced %v", label, i, j, a[i][j], b[i][j])
					}
				}
			}
		}
		exactEqual("prefill logits", preOn, preOff)
		exactEqual("decode logits", decOn, decOff)
	})
}

// TestRingPhaseCountsMatchPlan pins the per-rank ring instrumentation to
// the sharding plan: every rank records exactly one compute and one comm
// phase observation per ring sweep, and the sweep count is chunks x layers
// for prefill, steps x layers for decode — a pure function of the workload,
// which is what makes the /metrics histograms auditable.
func TestRingPhaseCountsMatchPlan(t *testing.T) {
	const (
		ranks       = 3
		tokenBudget = 4
		maxTokens   = 3
	)
	cfg := transformer.Tiny(11)
	prompt := []int{4, 19, 22, 7, 3, 11, 2, 9, 14, 5} // 10 tokens -> 3 chunks of budget 4
	srv, err := New(Config{
		Transformer: cfg,
		Ranks:       ranks,
		Variant:     model.PassKV,
		TokenBudget: tokenBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Scheduler().Generate(context.Background(), 1, prompt, maxTokens); err != nil {
		t.Fatal(err)
	}

	chunks := (len(prompt) + tokenBudget - 1) / tokenBudget
	layers := cfg.Model.Layers
	wantPrefill := uint64(chunks * layers)
	wantDecode := uint64((maxTokens - 1) * layers) // first token comes from prefill

	rec := srv.Recorder()
	for r := 0; r < ranks; r++ {
		rl := strconv.Itoa(r)
		for _, phase := range []string{"compute", "comm"} {
			got := rec.Hist("cp_ring_phase_seconds",
				trace.L("op", "prefill"), trace.L("phase", phase), trace.L("rank", rl)).HistCount()
			if got != wantPrefill {
				t.Errorf("rank %d prefill %s phase count = %d, plan predicts %d", r, phase, got, wantPrefill)
			}
			got = rec.Hist("cp_ring_phase_seconds",
				trace.L("op", "decode"), trace.L("phase", phase), trace.L("rank", rl)).HistCount()
			if got != wantDecode {
				t.Errorf("rank %d decode %s phase count = %d, plan predicts %d", r, phase, got, wantDecode)
			}
		}
	}

	// The same counts must surface through the HTTP exposition.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	samples, err := trace.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics did not parse: %v", err)
	}
	counts := map[string]float64{}
	for _, s := range samples {
		if s.Name == "cp_ring_phase_seconds_count" {
			counts[s.Labels["op"]+"/"+s.Labels["phase"]+"/"+s.Labels["rank"]] = s.Value
		}
	}
	for r := 0; r < ranks; r++ {
		key := fmt.Sprintf("prefill/compute/%d", r)
		if uint64(counts[key]) != wantPrefill {
			t.Errorf("/metrics %s = %v, plan predicts %d", key, counts[key], wantPrefill)
		}
	}
}

// A /metrics scrape, a /v1/trace export and a /v1/stats poll each send one
// command to each worker, because the stats reply carries the trace drain.
// The workers' heartbeats are silenced, so a control link moves only
// commands and their replies, and the links' own totals in Telemetry count
// them: two readings bracket one Telemetry round trip plus the request's
// commands, each a frame in both directions.
func TestOneCommandPerWorkerPerTelemetryRequest(t *testing.T) {
	cfg := transformer.Tiny(29)
	addrs := startWorkers(t, cfg, 2, func(wc *transformer.WorkerConfig) {
		wc.HeartbeatEvery, wc.HeartbeatMisses = time.Hour, -1
	})
	srv, err := New(Config{
		Transformer: cfg, RankAddrs: addrs, TokenBudget: 4,
		DialTimeout: 20 * time.Second, HeartbeatMisses: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Scheduler().Generate(context.Background(), 1, []int{4, 19, 22, 7, 3, 11}, 3); err != nil {
		t.Fatal(err)
	}
	ctrlFrames := func() map[int]int64 {
		t.Helper()
		var tel transformer.Telemetry
		var err error
		srv.Scheduler().WithCluster(func(c *transformer.Cluster) { tel, err = c.Telemetry() })
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]int64{}
		for _, l := range tel.Links {
			if l.Src == -1 {
				out[l.Dst] = l.WireMsgs
			}
		}
		return out
	}
	h := srv.Handler()
	for _, path := range []string{"/metrics", "/v1/trace", "/v1/stats"} {
		before := ctrlFrames()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		after := ctrlFrames()
		if len(after) != len(addrs) {
			t.Fatalf("%d control links, want %d", len(after), len(addrs))
		}
		for r := range after {
			if frames := after[r] - before[r]; frames != 2*(1+1) {
				t.Errorf("%s: %d control frames to and from worker %d around it, want 4: one command and its reply, besides Telemetry's own", path, frames, r)
			}
		}
	}
}

// TestDistributedMetricsMatchPlan is the distributed acceptance check: a
// 3-rank multi-process run's /metrics exposition must carry per-rank ring
// compute/comm phase histograms whose observation counts equal the plan's
// predicted sweep count — proving worker-staged series survive the wire
// drain (the StatsResult's spans and series) intact.
func TestDistributedMetricsMatchPlan(t *testing.T) {
	const (
		ranks       = 3
		tokenBudget = 4
		maxTokens   = 3
	)
	cfg := transformer.Tiny(29)
	prompt := []int{4, 19, 22, 7, 3, 11, 2, 9, 14, 5} // 3 chunks of budget 4
	addrs := startWorkers(t, cfg, ranks)
	srv, err := New(Config{
		Transformer: cfg,
		RankAddrs:   addrs,
		Variant:     model.PassKV,
		TokenBudget: tokenBudget,
		DialTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Scheduler().Generate(context.Background(), 1, prompt, maxTokens); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	samples, err := trace.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics did not parse: %v", err)
	}
	counts := map[string]float64{}
	for _, s := range samples {
		if s.Name == "cp_ring_phase_seconds_count" {
			counts[s.Labels["op"]+"/"+s.Labels["phase"]+"/"+s.Labels["rank"]] = s.Value
		}
	}
	chunks := (len(prompt) + tokenBudget - 1) / tokenBudget
	layers := cfg.Model.Layers
	wantPrefill := float64(chunks * layers)
	wantDecode := float64((maxTokens - 1) * layers)
	for r := 0; r < ranks; r++ {
		for _, phase := range []string{"compute", "comm"} {
			if got := counts[fmt.Sprintf("prefill/%s/%d", phase, r)]; got != wantPrefill {
				t.Errorf("rank %d prefill %s count = %v, plan predicts %v", r, phase, got, wantPrefill)
			}
			if got := counts[fmt.Sprintf("decode/%s/%d", phase, r)]; got != wantDecode {
				t.Errorf("rank %d decode %s count = %v, plan predicts %v", r, phase, got, wantDecode)
			}
		}
	}
	// A second scrape must not double-count: the drain ships deltas, and
	// the coordinator's store is cumulative.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	again, err := trace.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("second scrape did not parse: %v", err)
	}
	for _, s := range again {
		if s.Name == "cp_ring_phase_seconds_count" && s.Labels["op"] == "prefill" && s.Labels["phase"] == "compute" {
			if s.Value != wantPrefill {
				t.Errorf("second scrape rank %s prefill compute count = %v, want %v (delta drain double-counted?)",
					s.Labels["rank"], s.Value, wantPrefill)
			}
		}
	}
}

// TestStatsSequenceAndUptime pins the new /v1/stats fields: sequence
// increments per snapshot, uptime_ms is monotonic, and the latency summary
// counts the request served.
func TestStatsSequenceAndUptime(t *testing.T) {
	srv, err := New(Config{Transformer: transformer.Tiny(17), Ranks: 2, TokenBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Scheduler().Generate(context.Background(), 1, []int{1, 2, 3, 4}, 3); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() statsResponse {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	a, b := get(), get()
	if b.Sequence != a.Sequence+1 {
		t.Errorf("sequence %d then %d, want +1", a.Sequence, b.Sequence)
	}
	if b.UptimeMs < a.UptimeMs {
		t.Errorf("uptime_ms went backwards: %d then %d", a.UptimeMs, b.UptimeMs)
	}
	if a.Latency.TTFT.Count == 0 {
		t.Error("ttft histogram empty after a generate")
	}
	if a.Latency.Step.P50 < 0 {
		t.Error("negative step p50")
	}
}

// TestTraceExportDeterministic pins the export ordering contract end to
// end: with no traffic between scrapes, two JSONL exports are byte
// identical, and the Chrome export validates against the schema checker.
func TestTraceExportDeterministic(t *testing.T) {
	srv, err := New(Config{Transformer: transformer.Tiny(23), Ranks: 2, TokenBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Scheduler().Generate(context.Background(), 1, []int{5, 6, 7, 8, 9}, 4); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	a := get("/v1/trace?format=jsonl")
	b := get("/v1/trace?format=jsonl")
	if !bytes.Equal(a, b) {
		t.Error("two quiescent JSONL exports differ — span ordering is not deterministic")
	}
	if err := trace.ValidateChromeTrace(get("/v1/trace")); err != nil {
		t.Errorf("chrome export invalid: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/trace?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format: status %d, want 400", resp.StatusCode)
	}
}
