package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAggregates(t *testing.T) {
	r := New()
	r.RecordSpan(Span{Name: "attn", Dur: int64(10 * time.Millisecond)})
	r.RecordSpan(Span{Name: "attn", Dur: int64(30 * time.Millisecond)})
	s := r.Stat("attn")
	if s.Count != 2 || s.Total != 40*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Fatalf("stat = %+v", s)
	}
	if s.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestMeanOfEmpty(t *testing.T) {
	var s Stat
	if s.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestNamesSorted(t *testing.T) {
	r := New()
	r.RecordSpan(Span{Name: "z", Dur: 1})
	r.RecordSpan(Span{Name: "a", Dur: 1})
	r.RecordSpan(Span{Name: "m", Dur: 1})
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "z" {
		t.Fatalf("names = %v", names)
	}
}

func TestStringContainsSpans(t *testing.T) {
	r := New()
	r.RecordSpan(Span{Name: "ring.sendrecv", Dur: int64(5 * time.Microsecond)})
	if !strings.Contains(r.String(), "ring.sendrecv") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.RecordSpan(Span{Name: "op", Dur: int64(time.Microsecond)})
			}
		}()
	}
	wg.Wait()
	if s := r.Stat("op"); s.Count != 800 {
		t.Fatalf("concurrent count = %d, want 800", s.Count)
	}
}

// A steady-state sweep resolves nothing and allocates nothing: the timer is
// the recorder's, handed to the next sweep once Finish has recorded one, and
// the ring.sweep span keeps its phase numbers as pairs in the recorder's own
// blocks. Only a sweep that is never finished allocates, and only the timer.
func TestSweepSteadyStateAllocatesOnlyTheTimer(t *testing.T) {
	r := New()
	r.Sweep(1, 7, "decode").Finish(2) // first sweep of the pair resolves the four series
	if got := testing.AllocsPerRun(200, func() { r.Sweep(1, 7, "decode") }); got != 1 {
		t.Fatalf("a Sweep never finished allocates %v objects, want 1 (the SweepTimer)", got)
	}
	if got := testing.AllocsPerRun(200, func() { r.Sweep(1, 7, "decode").Finish(2) }); got != 0 {
		t.Fatalf("steady-state Sweep…Finish allocates %v objects, want 0", got)
	}
	if n := r.CounterSeries("cp_ring_sweeps_total", L("op", "decode"), L("rank", "1")).Snap().Value; n != 202 {
		t.Fatalf("cp_ring_sweeps_total = %v, want 202", n)
	}
}

// A ring.sweep span's Args are what Finish always built — compute_ns,
// comm_ns and steps, and all2all_ns only when the sweep ran an All2All —
// with the timer's own numbers, however they are read: Spans, the JSONL and
// Chrome exports, and Drain. A span recorded with pair arguments reads the
// same way, and one recorded with an Args map keeps it.
func TestSweepSpanArgsOnEveryReadPath(t *testing.T) {
	r := New()
	want := map[string]map[string]int64{} // by Cat
	sweep := func(op string, steps int, a2a bool) {
		tr := r.Sweep(0, 3, op)
		tr.Compute(time.Now().Add(-2 * time.Millisecond))
		tr.Comm(time.Now().Add(-time.Millisecond))
		args := map[string]int64{"compute_ns": tr.computeNs, "comm_ns": tr.commNs, "steps": int64(steps)}
		if a2a {
			tr.A2A(time.Now().Add(-time.Microsecond))
			args["all2all_ns"] = tr.a2aNs
		}
		want[op] = args
		tr.Finish(steps)
	}
	sweep("decode", 2, true)
	sweep("prefill", 4, false)
	r.RecordSpanArgs(Span{Name: "decode.batch", Cat: "pairs", Rank: CoordinatorRank, Seq: NoSeq},
		Arg{"batch", 8}, Arg{"cohort.chat", 3})
	want["pairs"] = map[string]int64{"batch": 8, "cohort.chat": 3}
	r.RecordSpan(Span{Name: "prefix.adopt", Cat: "map", Rank: CoordinatorRank, Seq: NoSeq, Args: map[string]int64{"tokens": 64}})
	want["map"] = map[string]int64{"tokens": 64}

	check := func(path string, cat string, got map[string]int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want[cat]) {
			t.Errorf("%s: the %s span's args read %v, want %v", path, cat, got, want[cat])
		}
	}
	spans := r.Spans()
	if len(spans) != len(want) {
		t.Fatalf("Spans returned %d spans, want %d", len(spans), len(want))
	}
	for _, s := range spans {
		check("Spans", s.Cat, s.Args)
	}

	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&jsonl)
	for i := 0; dec.More(); i++ {
		var s Span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, spans[i]) {
			t.Errorf("JSONL record %d reads %+v, Spans %+v", i, s, spans[i])
		}
		check("JSONL", s.Cat, s.Args)
	}

	var chrome bytes.Buffer
	if err := r.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		got := map[string]int64{}
		for k, v := range ev.Args {
			if k != "epoch" && k != "index" && k != "seq" {
				got[k] = int64(v.(float64))
			}
		}
		check("Chrome trace", ev.Cat, got)
	}

	drained, _ := r.Drain()
	if len(drained) != len(want) {
		t.Fatalf("Drain returned %d spans, want %d", len(drained), len(want))
	}
	for _, s := range drained {
		check("Drain", s.Cat, s.Args)
	}
	if n := r.SpanCount(); n != 0 {
		t.Fatalf("%d spans left after Drain", n)
	}
}
