package trace

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Property: Quantile returns exactly the smallest bucket bound whose
// cumulative sample count reaches q·n, recomputed here independently from
// the sorted raw samples.
func TestHistogramQuantileMatchesSortedOracle(t *testing.T) {
	f := func(seed int64, rawN uint16, rawQ uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%500) + 1
		q := float64(rawQ%1001) / 1000.0
		r := New()
		h := r.Hist("oracle_seconds")
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform over the bucket range plus outliers past both ends.
			samples[i] = math.Exp(rng.Float64()*math.Log(1e9)) * 1e-7
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		// Oracle: smallest bound with #(samples <= bound) >= q*n; the +Inf
		// overflow saturates at the last finite bound, like Quantile.
		target := q * float64(n)
		oracle := BucketBounds[len(BucketBounds)-1]
		for _, b := range BucketBounds {
			cnt := sort.SearchFloat64s(samples, b)
			// SearchFloat64s gives #(samples < b); extend over equal values.
			for cnt < n && samples[cnt] <= b {
				cnt++
			}
			if float64(cnt) >= target {
				oracle = b
				break
			}
		}
		got := h.Quantile(q)
		if got != oracle {
			t.Logf("seed=%d n=%d q=%v: got %v want %v", seed, n, q, got, oracle)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomSnap(rng *rand.Rand, name string) SeriesSnap {
	sn := SeriesSnap{
		Name: name, Kind: KindHistogram,
		Labels: []Label{L("rank", "0")},
		Counts: make([]uint64, len(BucketBounds)+1),
	}
	for i := range sn.Counts {
		sn.Counts[i] = uint64(rng.Intn(10))
		sn.Count += sn.Counts[i]
		// Integer sums keep float addition exact, so associativity is
		// checked at full equality.
		sn.Sum += float64(rng.Intn(100))
	}
	return sn
}

// Cross-rank merge associativity: (a+b)+c == a+(b+c) for histogram
// bucket counts, counts, and (integer-valued) sums.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randomSnap(rng, "m_seconds")
		b := randomSnap(rng, "m_seconds")
		c := randomSnap(rng, "m_seconds")

		left := New()
		left.MergeSeries([]SeriesSnap{a, b})
		ab, _ := leftDrainAll(left)
		leftTotal := New()
		leftTotal.MergeSeries(ab)
		leftTotal.MergeSeries([]SeriesSnap{c})

		rightInner := New()
		rightInner.MergeSeries([]SeriesSnap{b, c})
		bc, _ := leftDrainAll(rightInner)
		rightTotal := New()
		rightTotal.MergeSeries([]SeriesSnap{a})
		rightTotal.MergeSeries(bc)

		var lb, rb bytes.Buffer
		if err := leftTotal.WriteProm(&lb); err != nil {
			t.Fatal(err)
		}
		if err := rightTotal.WriteProm(&rb); err != nil {
			t.Fatal(err)
		}
		if lb.String() != rb.String() {
			t.Fatalf("merge not associative:\n%s\nvs\n%s", lb.String(), rb.String())
		}
	}
}

func leftDrainAll(r *Recorder) ([]SeriesSnap, []Span) {
	spans, series := r.Drain()
	return series, spans
}

func TestPromEncodeParseRoundTrip(t *testing.T) {
	r := New()
	r.Hist("cp_request_ttft_seconds").Observe(0.012)
	r.Hist("cp_request_ttft_seconds").Observe(3.5)
	r.Hist("cp_ring_phase_seconds", L("rank", "0"), L("op", "prefill"), L("phase", "compute")).Observe(0.001)
	r.CounterSeries("cp_ring_sweeps_total", L("rank", "0"), L("op", "prefill")).Inc(4)
	r.Gauge("cp_uptime_seconds").Set(12.5)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse of own output failed: %v\n%s", err, text)
	}
	find := func(name string, labels map[string]string) *PromSample {
		for i := range samples {
			s := &samples[i]
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return s
			}
		}
		return nil
	}
	if s := find("cp_request_ttft_seconds_count", nil); s == nil || s.Value != 2 {
		t.Fatalf("ttft count sample = %+v", s)
	}
	if s := find("cp_ring_sweeps_total", map[string]string{"rank": "0", "op": "prefill"}); s == nil || s.Value != 4 {
		t.Fatalf("sweeps sample = %+v", s)
	}
	if s := find("cp_uptime_seconds", nil); s == nil || s.Value != 12.5 {
		t.Fatalf("uptime sample = %+v", s)
	}
	if s := find("cp_request_ttft_seconds_bucket", map[string]string{"le": "+Inf"}); s == nil || s.Value != 2 {
		t.Fatalf("+Inf bucket = %+v", s)
	}
	// Output is deterministic.
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Fatal("WriteProm not deterministic")
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := []string{
		"cp_x 1",                         // no TYPE
		"# TYPE cp_x counter\ncp_x{a=1",  // unterminated labels
		"# TYPE cp_x wat\ncp_x 1",        // unknown type
		"# TYPE cp_x counter\ncp_x nope", // bad value
		"# TYPE cp_h histogram\ncp_h_bucket{le=\"1\"} 5\ncp_h_bucket{le=\"2\"} 3\ncp_h_bucket{le=\"+Inf\"} 5\ncp_h_sum 1\ncp_h_count 5", // non-monotone
		"# TYPE cp_h histogram\ncp_h_bucket{le=\"1\"} 5\ncp_h_sum 1\ncp_h_count 5",                                                      // no +Inf
	}
	for _, c := range cases {
		if _, err := ParseProm(strings.NewReader(c)); err == nil {
			t.Fatalf("ParseProm accepted %q", c)
		}
	}
}

func TestChromeTraceExportValidates(t *testing.T) {
	r := New()
	st := r.Sweep(0, 1, "prefill")
	t0 := st.Clock()
	st.Compute(t0)
	st.Comm(st.Clock())
	st.Finish(3)
	r.RecordSpan(Span{Name: "request", Rank: CoordinatorRank, Seq: 7, Epoch: 1,
		Start: time.Now().UnixNano(), Dur: 1000, Args: map[string]int64{"tokens": 8}})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("own chrome trace invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `"ring.sweep"`) || !strings.Contains(buf.String(), "coordinator") {
		t.Fatalf("chrome trace missing expected events:\n%s", buf.String())
	}
	if err := ValidateChromeTrace([]byte(`{"foo":1}`)); err == nil {
		t.Fatal("validator accepted JSON without traceEvents")
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[{"ph":"X"}]}`)); err == nil {
		t.Fatal("validator accepted event without name/pid/tid")
	}
}

// Export order is (Epoch, Rank, Index) — each rank's program order —
// regardless of the interleaving in which ranks recorded.
func TestSpanExportOrderingDeterministic(t *testing.T) {
	r := New()
	// Interleave two ranks' recordings "racily".
	for i := 0; i < 5; i++ {
		r.RecordSpan(Span{Name: "b", Rank: 1, Epoch: 1, Start: int64(100 - i)})
		r.RecordSpan(Span{Name: "a", Rank: 0, Epoch: 1, Start: int64(50 + i)})
	}
	r.RecordSpan(Span{Name: "late", Rank: 0, Epoch: 2, Start: 1})
	spans := r.Spans()
	if len(spans) != 11 {
		t.Fatalf("span count = %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Epoch > b.Epoch || (a.Epoch == b.Epoch && a.Rank > b.Rank) ||
			(a.Epoch == b.Epoch && a.Rank == b.Rank && a.Index >= b.Index) {
			t.Fatalf("order violated at %d: %+v then %+v", i, a, b)
		}
	}
	var j1, j2 bytes.Buffer
	if err := r.WriteJSONL(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() || j1.Len() == 0 {
		t.Fatal("JSONL export not deterministic")
	}
}

// Drain ships deltas: a second drain is empty, and merging drains into a
// fresh recorder reproduces the cumulative state.
func TestDrainMergeRoundTrip(t *testing.T) {
	worker := New()
	worker.Hist("cp_step_seconds").Observe(0.25)
	worker.CounterSeries("cp_ring_sweeps_total", L("rank", "1"), L("op", "decode")).Inc(2)
	worker.RecordSpan(Span{Name: "ring.sweep", Rank: 1, Epoch: 3, Start: 10, Dur: 5})

	coord := New()
	spans, series := worker.Drain()
	coord.MergeSpans(spans)
	coord.MergeSeries(series)

	spans2, series2 := worker.Drain()
	if len(spans2) != 0 {
		t.Fatalf("second drain returned %d spans", len(spans2))
	}
	for _, sn := range series2 {
		if sn.Count != 0 || sn.Value != 0 {
			t.Fatalf("second drain returned non-empty delta %+v", sn)
		}
	}
	if got := coord.Spans(); len(got) != 1 || got[0].Epoch != 3 || got[0].Rank != 1 || got[0].Index != 1 {
		t.Fatalf("merged spans = %+v", got)
	}
	if v := coord.CounterSeries("cp_ring_sweeps_total", L("op", "decode"), L("rank", "1")).Snap().Value; v != 2 {
		t.Fatalf("merged counter = %v", v)
	}
	if c := coord.Hist("cp_step_seconds").HistCount(); c != 1 {
		t.Fatalf("merged hist count = %d", c)
	}
	// Worker keeps observing after the drain; next drain ships only the new delta.
	worker.Hist("cp_step_seconds").Observe(0.5)
	_, series3 := worker.Drain()
	coord.MergeSeries(series3)
	if c := coord.Hist("cp_step_seconds").HistCount(); c != 2 {
		t.Fatalf("cumulative hist count = %d", c)
	}
}

func TestSpanBufferCapDrops(t *testing.T) {
	r := New()
	r.SetMaxSpans(4)
	for i := 0; i < 10; i++ {
		r.RecordSpan(Span{Name: "s", Rank: 0, Epoch: 1})
	}
	if got := r.SpanCount(); got != 4 {
		t.Fatalf("buffered = %d, want 4", got)
	}
	if v := r.CounterSeries("cp_trace_spans_dropped_total", L("rank", "0")).Snap().Value; v != 6 {
		t.Fatalf("dropped counter = %v", v)
	}
	// Aggregates still counted every span.
	if s := r.Stat("s"); s.Count != 10 {
		t.Fatalf("aggregate count = %d", s.Count)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordSpan(Span{Name: "x"})
	st := r.Sweep(0, 1, "prefill")
	st.Compute(st.Clock())
	st.Comm(st.Clock())
	st.A2A(st.Clock())
	st.Finish(2)
	r.Hist("h").Observe(1)
	r.CounterSeries("c").Inc(1)
	r.Gauge("g").Set(1)
	if r.Hist("h").Quantile(0.5) != 0 || r.CounterSeries("c").Snap().Value != 0 || r.SpanCount() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
