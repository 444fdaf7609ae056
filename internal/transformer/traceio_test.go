package transformer

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm/wire"
	"repro/internal/trace"
)

// A worker's ring.sweep spans reach the coordinator with the Args a local
// read gives: drained, converted to wire spans, framed, read back and merged
// into the coordinator's recorder, a sweep with an All2All keeps all2all_ns
// and one without stays without, every value intact.
func TestSweepSpanArgsSurviveTheWireDrain(t *testing.T) {
	worker := trace.New()
	for i, op := range []string{"decode", "prefill"} {
		tr := worker.Sweep(1, 2, op)
		tr.Compute(time.Now().Add(-time.Millisecond))
		tr.Comm(time.Now().Add(-time.Microsecond))
		if op == "decode" {
			tr.A2A(time.Now().Add(-time.Microsecond))
		}
		tr.Finish(i + 2)
	}
	want := worker.Spans()
	if _, ok := want[0].Args["all2all_ns"]; !ok {
		t.Fatalf("the decode sweep's args %v lack all2all_ns", want[0].Args)
	}
	if _, ok := want[1].Args["all2all_ns"]; ok {
		t.Fatalf("the prefill sweep's args %v carry all2all_ns without an All2All", want[1].Args)
	}
	spans, _ := worker.Drain()
	var buf bytes.Buffer
	if _, err := wire.WriteFrame(&buf, &wire.TraceResult{Rank: 1, Spans: spansToWire(spans)}); err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	coord := trace.New()
	coord.MergeSpans(wireToSpans(v.(*wire.TraceResult).Spans))
	if got := coord.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the coordinator reads %+v, the worker read %+v", got, want)
	}
}
