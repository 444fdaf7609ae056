package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/transformer"
)

// tinyEnv is the smoke configuration: transformer.Tiny with an 8-token
// chunk budget, so every code path of the four workloads runs in
// milliseconds.
func tinyEnv() Env {
	return Env{Model: transformer.Tiny(1), Ranks: 2, TokenBudget: 8, RungBudget: time.Millisecond}
}

// tinyWorkloads are the four workloads with their shapes divided down to
// the tiny budget; names, client counts and structure are the real ones.
func tinyWorkloads() []Workload {
	out := workloads()
	shapes := map[string][3]int{ // prompt, shared, out
		"prefill_full":       {32, 0, 4},
		"prefill_persistent": {28, 24, 4},
		"decode_batch":       {8, 0, 8},
		"ring_tcp":           {16, 0, 6},
	}
	for i := range out {
		s := shapes[out[i].Name]
		out[i].Prompt, out[i].Shared, out[i].Out = s[0], s[1], s[2]
		out[i].Rounds, out[i].PerClient = 1, min(out[i].PerClient, 2)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	e := benchEnv()
	flat := func(seed int64, w Workload) []byte {
		var buf bytes.Buffer
		for _, in := range genInputs(e, w, seed, 2) {
			buf.Write(in.Warm.PrefillBody)
			for _, c := range in.Clients {
				for _, rq := range c {
					buf.Write(rq.PrefillBody)
				}
			}
		}
		return buf.Bytes()
	}
	seen := map[string]string{}
	for _, w := range workloads() {
		a, b := flat(7, w), flat(7, w)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request sets", w.Name)
		}
		if bytes.Equal(a, flat(8, w)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request set", w.Name)
		}
		if other, dup := seen[string(a[:256])]; dup {
			t.Errorf("%s and %s share prompts", w.Name, other)
		}
		seen[string(a[:256])] = w.Name
	}
	// Every prompt of a shared-corpus workload starts with the one corpus.
	w, _ := workloadByName("prefill_persistent")
	in := genInputs(e, w, 7, 2)
	corpus := in[0].Warm.Prompt[:w.Shared]
	for _, client := range in[1].Clients {
		for _, rq := range client {
			if len(rq.Prompt) != w.Prompt || !equalInts(rq.Prompt[:w.Shared], corpus) {
				t.Fatalf("session %d does not start with the shared corpus", rq.Session)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPercentileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// At p = 100·k/(n-1) the percentile is exactly the k-th order statistic.
		for k := 0; k < n; k++ {
			p := 100.0
			if n > 1 {
				p = 100 * float64(k) / float64(n-1)
			}
			want := sorted[k]
			if n == 1 {
				want = sorted[0]
			}
			if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d p=%.3f: got %v, order statistic %v", n, p, got, want)
			}
		}
		// Between order statistics it never leaves their interval.
		for _, p := range []float64{10, 50, 90, 99} {
			rank := p / 100 * float64(n-1)
			lo, hi := sorted[int(math.Floor(rank))], sorted[int(math.Ceil(rank))]
			if got := percentile(xs, p); got < lo-1e-12 || got > hi+1e-12 {
				t.Fatalf("n=%d p=%v: %v outside [%v, %v]", n, p, got, lo, hi)
			}
		}
		if n%2 == 1 && median(xs) != sorted[n/2] {
			t.Fatalf("n=%d: median %v, middle element %v", n, median(xs), sorted[n/2])
		}
	}
	if !sort.Float64sAreSorted([]float64{percentile([]float64{3, 1, 2}, 0), percentile([]float64{3, 1, 2}, 50), percentile([]float64{3, 1, 2}, 100)}) {
		t.Error("percentile is not monotone in p")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: union 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 130}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "e", Start: 25, End: 45},
		{ID: 6, Parent: 2, Name: "f", Start: 30, End: 35}, // inside e
	}
	want := map[int]int64{0: 100 - (40 + 10 + 10), 1: 20, 2: 30 - 20, 3: 10, 4: 40, 5: 20, 6: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
	sum := summarizeSpans(spans)
	if len(sum) != 7 || sum[0].Name != "a" || sum[len(sum)-1].Name != "root" {
		t.Errorf("summary not sorted by name: %+v", sum)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestDeclaredNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads() {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.Prompt < benchEnv().TokenBudget {
			t.Errorf("workload %s: a %d-token prompt donates no whole block", w.Name, w.Prompt)
		}
		if n := w.Rounds * w.Clients * w.PerClient; n < 24 {
			t.Errorf("workload %s measures %d requests per run, want >= 24", w.Name, n)
		}
		if !w.Barrier && w.Clients != 1 {
			t.Errorf("workload %s: a closed loop runs one client, not %d", w.Name, w.Clients)
		}
	}
	for _, d := range append(endToEnd(), perLayer()...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd() {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations runs the check every benchmark run
// starts with, and shows it catches a drifted bound.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if err := matchesDeclarations(data); err != nil {
		t.Error(err)
	}
	drifted := bytes.Replace(data, []byte(`"bound": 0.02`), []byte(`"bound": 0.03`), 1)
	if err := matchesDeclarations(drifted); err == nil || !strings.Contains(err.Error(), "allocs_per_tok") {
		t.Errorf("a changed allocs_per_tok bound passed the check: %v", err)
	}
}

// TestTinySmoke runs all four workloads, untraced and traced, on the tiny
// model, and checks the emitted JSON carries every declared metric ×
// workload with its unit and sample count. The traced run also checks every
// counter against the shapes' prediction, so this covers predict too.
func TestTinySmoke(t *testing.T) {
	e := tinyEnv()
	var rep, traced Report
	spans := newSpanLog()
	for _, w := range tinyWorkloads() {
		wr, err := runWorkload(e, w, 5, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		var log bytes.Buffer
		tr, err := traceWorkload(e, w, 5, spans, &log)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if tr.Failed != 0 {
			t.Errorf("%s traced: %d failed operations\n%s", w.Name, tr.Failed, log.String())
		}
		traced.Workloads = append(traced.Workloads, tr)
	}
	for _, c := range []struct {
		rep   Report
		defs  []MetricDef
		field func(WorkloadReport) []Metric
	}{
		{rep, endToEnd(), func(w WorkloadReport) []Metric { return w.Metrics }},
		{traced, perLayer(), func(w WorkloadReport) []Metric { return w.Layers }},
	} {
		data, err := json.Marshal(c.rep)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if len(back.Workloads) != len(workloads()) {
			t.Fatalf("report has %d workloads", len(back.Workloads))
		}
		for i, w := range back.Workloads {
			if w.Name != workloads()[i].Name {
				t.Errorf("workload %d is %q", i, w.Name)
			}
			if w.Failed != 0 || w.Ops == 0 {
				t.Errorf("%s: ops=%d failed=%d", w.Name, w.Ops, w.Failed)
			}
			got := c.field(w)
			if len(got) != len(c.defs) {
				t.Fatalf("%s: %d metrics emitted, %d declared", w.Name, len(got), len(c.defs))
			}
			for j, d := range c.defs {
				m := got[j]
				if m.Name != d.Name || m.Unit != d.Unit {
					t.Errorf("%s metric %d: emitted %s [%s], declared %s [%s]", w.Name, j, m.Name, m.Unit, d.Name, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s = %v", w.Name, m.Name, m.Value)
				}
			}
			for _, m := range w.Metrics {
				if m.N < 1 || m.Value <= 0 {
					t.Errorf("%s %s = %v (n=%d): end-to-end metrics are never zero", w.Name, m.Name, m.Value, m.N)
				}
			}
		}
	}
	if line, failed := resultLine(Report{Workloads: rep.Workloads[:1]}); failed != 0 || !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
		t.Errorf("result line: %s", line)
	}
	// Spans: every handler call sits under a request or the measured phase,
	// and every rung under the rungs span.
	byID := map[int]Span{}
	all := spans.snapshot()
	for _, s := range all {
		byID[s.ID] = s
	}
	handlers, rungs := 0, 0
	for _, s := range all {
		switch {
		case strings.HasPrefix(s.Name, "handler."):
			handlers++
			if p := byID[s.Parent].Name; p != "request" && p != "measured" {
				t.Errorf("span %s has parent %q", s.Name, p)
			}
			if s.Req < 0 {
				t.Errorf("span %s carries no request id", s.Name)
			}
		case strings.HasPrefix(s.Name, "rung."):
			rungs++
			if byID[s.Parent].Name != "rungs" {
				t.Errorf("span %s has parent %q", s.Name, byID[s.Parent].Name)
			}
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if handlers == 0 || rungs == 0 {
		t.Errorf("traced run recorded %d handler spans and %d rung spans", handlers, rungs)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := MetricDef{Name: "ttft_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "tok_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		def     MetricDef
		b       []float64
		verdict string
	}{
		{lower, []float64{101, 100, 100, 99, 101}, "ok"},
		{lower, []float64{120, 121, 119, 122, 120}, "worse"},
		{lower, []float64{80, 81, 79, 80, 82}, "ok"},
		{higher, []float64{80, 81, 79, 80, 82}, "worse"},
		{higher, []float64{120, 121, 119, 122, 120}, "ok"},
		{lower, []float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		got := compareMetric(c.def, a, c.b)
		if got.Verdict != c.verdict {
			t.Errorf("%s B=%v: verdict %s, want %s (%+v)", c.def.Name, c.b, got.Verdict, c.verdict, got)
		}
	}
	if got := compareMetric(lower, a, []float64{90, 111, 89, 110, 92}); got.Wins != 3 || got.Pairs != 5 {
		t.Errorf("wins %d/%d, want 3/5", got.Wins, got.Pairs)
	}
	if got := compareMetric(MetricDef{Name: "ring.sweeps", Better: "lower"}, a, a); got.Verdict != "-" || got.Worse != 0 {
		t.Errorf("ungated metric: %+v", got)
	}
}
