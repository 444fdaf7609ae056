package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// TestCohortMetricsEndToEnd drives cohort-tagged requests through the HTTP
// API and checks the full attribution path: pre-registered series appear at
// zero before any traffic, tagged requests land in their cohort's
// cp_cohort_* families on /metrics, the /v1/stats latency block grows a
// by_cohort breakdown, and untagged requests touch none of it.
func TestCohortMetricsEndToEnd(t *testing.T) {
	srv, err := New(Config{
		Transformer: transformer.Tiny(7),
		Ranks:       2,
		Variant:     model.PassKV,
		TokenBudget: 8,
		Cohorts:     []string{"chat", "rag"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	scrape := func() map[string]float64 {
		t.Helper()
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
		out := map[string]float64{}
		for _, s := range samples {
			if strings.HasPrefix(s.Name, "cp_cohort_") {
				out[s.Name+"/"+s.Labels["cohort"]] = s.Value
			}
		}
		return out
	}

	// Pre-registration: configured cohorts (and the overflow label) exist at
	// zero before a single request, so dashboards can tell "no traffic yet"
	// from "series missing".
	before := scrape()
	for _, c := range []string{"chat", "rag", trace.OverflowLabel} {
		for _, fam := range []string{"cp_cohort_ttft_seconds_count", "cp_cohort_itl_seconds_count",
			"cp_cohort_e2e_seconds_count", "cp_cohort_requests_total"} {
			v, ok := before[fam+"/"+c]
			if !ok {
				t.Fatalf("pre-registered series %s{cohort=%q} missing from /metrics", fam, c)
			}
			if v != 0 {
				t.Fatalf("pre-registered %s{cohort=%q} = %v before any traffic", fam, c, v)
			}
		}
	}

	gen := func(session int, cohort string) {
		t.Helper()
		body := fmt.Sprintf(`{"session":%d,"prompt":[4,19,22,7],"max_tokens":4`, session)
		if cohort != "" {
			body += fmt.Sprintf(`,"cohort":%q`, cohort)
		}
		body += "}"
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate session %d: status %d: %s", session, resp.StatusCode, b)
		}
	}
	gen(1, "chat")
	gen(2, "chat")
	gen(3, "rag")
	gen(4, "") // untagged: must not move any cohort series

	after := scrape()
	wantReq := map[string]float64{"chat": 2, "rag": 1, trace.OverflowLabel: 0}
	for c, want := range wantReq {
		if got := after["cp_cohort_requests_total/"+c]; got != want {
			t.Errorf("cp_cohort_requests_total{cohort=%q} = %v, want %v", c, got, want)
		}
		if got := after["cp_cohort_ttft_seconds_count/"+c]; got != want {
			t.Errorf("cp_cohort_ttft_seconds_count{cohort=%q} = %v, want %v", c, got, want)
		}
		if got := after["cp_cohort_e2e_seconds_count/"+c]; got != want {
			t.Errorf("cp_cohort_e2e_seconds_count{cohort=%q} = %v, want %v", c, got, want)
		}
	}
	// max_tokens 4 -> 3 decode steps per request, each observing one ITL.
	if got := after["cp_cohort_itl_seconds_count/chat"]; got != 6 {
		t.Errorf("cp_cohort_itl_seconds_count{cohort=\"chat\"} = %v, want 6", got)
	}

	// The same breakdown surfaces in /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Latency *struct {
			ByCohort map[string]struct {
				TTFT struct {
					Count uint64 `json:"count"`
				} `json:"ttft_seconds"`
				ITL struct {
					Count uint64 `json:"count"`
				} `json:"itl_seconds"`
				E2E struct {
					Count uint64 `json:"count"`
				} `json:"e2e_seconds"`
			} `json:"by_cohort"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Latency == nil || stats.Latency.ByCohort == nil {
		t.Fatal("/v1/stats latency.by_cohort missing")
	}
	chat, ok := stats.Latency.ByCohort["chat"]
	if !ok {
		t.Fatalf("/v1/stats by_cohort missing chat: %v", stats.Latency.ByCohort)
	}
	if chat.TTFT.Count != 2 || chat.E2E.Count != 2 || chat.ITL.Count != 6 {
		t.Errorf("by_cohort chat counts ttft=%d itl=%d e2e=%d, want 2/6/2",
			chat.TTFT.Count, chat.ITL.Count, chat.E2E.Count)
	}
	if rag, ok := stats.Latency.ByCohort["rag"]; !ok || rag.TTFT.Count != 1 {
		t.Errorf("by_cohort rag = %+v, ok=%v, want ttft count 1", rag, ok)
	}
}

// TestCohortUnknownLabelsBounded floods the scheduler with fresh cohort
// names: the label pool mints at most DefaultLabelCap series and folds the
// rest into "other", so a misbehaving client cannot blow up /metrics
// cardinality — and no observation is lost in the folding.
func TestCohortUnknownLabelsBounded(t *testing.T) {
	srv, err := New(Config{
		Transformer: transformer.Tiny(7),
		Ranks:       2,
		Variant:     model.PassKV,
		TokenBudget: 8,
		Cohorts:     []string{"chat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const flood = trace.DefaultLabelCap + 8
	for i := 0; i < flood; i++ {
		_, err := srv.Scheduler().GenerateWith(context.Background(), i+1, []int{4, 19, 22, 7}, 2,
			RequestOptions{Cohort: fmt.Sprintf("spray-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
	}

	names := srv.Scheduler().Cohorts()
	if len(names) > trace.DefaultLabelCap+1 { // +1: the overflow label itself
		t.Fatalf("%d cohort series registered, cap is %d", len(names), trace.DefaultLabelCap+1)
	}
	rec := srv.Recorder()
	total := uint64(0)
	for _, c := range names {
		total += uint64(rec.CounterSeries("cp_cohort_requests_total", trace.L("cohort", c)).Snap().Value)
	}
	if total != flood {
		t.Fatalf("requests_total across cohorts = %d, want %d (folding lost traffic)", total, flood)
	}
	if rec.CounterSeries("cp_cohort_requests_total", trace.L("cohort", trace.OverflowLabel)).Snap().Value == 0 {
		t.Fatal("overflow cohort absorbed no traffic despite flood past the cap")
	}
}

// TestCohortBitIdentity extends the tracing acceptance bar to cohort
// labeling: tagging requests with cohorts (with tracing on or off) must not
// change a single served token relative to untagged runs — the label path
// only touches metric handles, never the model.
func TestCohortBitIdentity(t *testing.T) {
	prompt := []int{4, 19, 22, 7, 3, 11, 2, 9, 14, 5}
	cohorts := []string{"chat", "rag", "agentic"}
	run := func(tag bool, noTrace bool) [][]int {
		srv, err := New(Config{
			Transformer: transformer.Tiny(13),
			Ranks:       2,
			Variant:     model.Auto,
			TokenBudget: 4,
			NoTrace:     noTrace,
			Cohorts:     cohorts,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var out [][]int
		for sess := 1; sess <= 3; sess++ {
			opts := RequestOptions{}
			if tag {
				opts.Cohort = cohorts[sess-1]
			}
			res, err := srv.Scheduler().GenerateWith(context.Background(), sess, prompt, 6, opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Tokens)
		}
		return out
	}
	base := run(false, false)
	for _, v := range []struct {
		name string
		tag  bool
		off  bool
	}{{"tagged-traced", true, false}, {"tagged-untraced", true, true}, {"untagged-untraced", false, true}} {
		got := run(v.tag, v.off)
		for i := range base {
			if fmt.Sprint(base[i]) != fmt.Sprint(got[i]) {
				t.Fatalf("%s session %d: tokens %v != baseline %v", v.name, i+1, got[i], base[i])
			}
		}
	}
}

// TestCohortSpanTagging checks the span-level attribution: queue.wait and
// prefill.chunk spans carry the cohort's pool id, and decode.batch spans
// count their members per cohort — all as int64 args, so the wire codec is
// untouched.
func TestCohortSpanTagging(t *testing.T) {
	srv, err := New(Config{
		Transformer: transformer.Tiny(7),
		Ranks:       2,
		Variant:     model.PassKV,
		TokenBudget: 8,
		Cohorts:     []string{"chat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Scheduler().GenerateWith(context.Background(), 1, []int{4, 19, 22, 7}, 4,
		RequestOptions{Cohort: "chat"}); err != nil {
		t.Fatal(err)
	}
	spans := srv.Recorder().Spans()
	var sawWait, sawChunk, sawBatch bool
	for _, sp := range spans {
		switch sp.Name {
		case "queue.wait":
			if id, ok := sp.Args["cohort"]; ok && id > 0 {
				sawWait = true
			}
		case "prefill.chunk":
			if id, ok := sp.Args["cohort"]; ok && id > 0 {
				sawChunk = true
			}
		case "decode.batch":
			if n := sp.Args["cohort.chat"]; n > 0 {
				sawBatch = true
			}
		}
	}
	if !sawWait || !sawChunk || !sawBatch {
		t.Fatalf("cohort span tags missing: queue.wait=%v prefill.chunk=%v decode.batch=%v",
			sawWait, sawChunk, sawBatch)
	}
}
