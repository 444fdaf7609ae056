package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/spans.*.golden from the current code")

// goldenRecorder records one span of every shape production records, with
// fixed times so the exports are a pure function of the code: ring sweeps
// with and without an All2All, queue waits with and without a cohort, a
// decode batch with cohort counts (and one with more cohorts than fit
// inline), prefill chunks, prefix adopt and detach, a recovery replay, a
// worker's drained spans merged back with Args maps, a key given twice, a
// span with more than four keys, and a map merged with pairs.
func goldenRecorder() *Recorder {
	r := New()
	recordGolden(r)
	return r
}

func recordGolden(r *Recorder) {
	const t0 = 1_700_000_000_000_000_000
	at := func(i int64) int64 { return t0 + i*1000 }
	coord := func(name, cat string, seq int, i int64, args ...Arg) {
		r.RecordSpanArgs(Span{Name: name, Cat: cat, Rank: CoordinatorRank, Seq: seq, Epoch: 1, Start: at(i), Dur: 700 + i}, args...)
	}
	sweep := func(rec *Recorder, rank int, op string, i int64, a2a bool) {
		args := []Arg{{"compute_ns", 1000 + i}, {"comm_ns", 300 + i}, {"steps", int64(rank + 1)}}
		if a2a {
			args = append(args, Arg{"all2all_ns", 50 + i})
		}
		rec.RecordSpanArgs(Span{Name: "ring.sweep", Cat: op, Rank: rank, Seq: NoSeq, Epoch: 1, Start: at(i), Dur: 400 + i}, args...)
	}

	coord("queue.wait", "prefill", NoSeq, 0)
	coord("queue.wait", "prefill", NoSeq, 1, Arg{"cohort", 2})
	coord("prefix.adopt", "cache", 7, 2, Arg{"tokens", 512})
	coord("prefill.chunk", "prefill", 7, 3, Arg{"tokens", 256}, Arg{"pos", 512})
	coord("prefill.chunk", "prefill", 8, 4, Arg{"tokens", 128}, Arg{"pos", 0}, Arg{"cohort", 1})
	sweep(r, 0, "prefill", 5, false)
	sweep(r, 0, "decode", 6, true)
	coord("queue.wait", "decode", NoSeq, 7, Arg{"cohort", 1})
	coord("queue.wait", "decode", NoSeq, 8)
	coord("decode.batch", "decode", NoSeq, 9, Arg{"batch", 8}, Arg{"cohort.chat", 3}, Arg{"cohort.batch", 2})
	coord("decode.batch", "decode", NoSeq, 10, Arg{"batch", 8},
		Arg{"cohort.a", 1}, Arg{"cohort.b", 2}, Arg{"cohort.c", 1}, Arg{"cohort.d", 4})
	coord("decode.batch", "decode", NoSeq, 11, Arg{"batch", 1})
	coord("prefix.detach", "cache", 7, 12, Arg{"tokens", 768})
	coord("dup", "pairs", NoSeq, 13, Arg{"a", 1}, Arg{"b", 2}, Arg{"a", 3})
	coord("wide", "pairs", 3, 14, Arg{"k1", 1}, Arg{"k2", 2}, Arg{"k3", 3}, Arg{"k4", 4}, Arg{"k5", 5}, Arg{"k6", -6})
	coord("wide", "pairs", 3, 15, Arg{"k1", 1}, Arg{"k2", 2}, Arg{"k3", 3}, Arg{"k4", 4}, Arg{"k5", 5}, Arg{"k1", 10})
	r.RecordSpan(Span{Name: "recovery.replay", Cat: "recovery", Rank: CoordinatorRank, Seq: NoSeq, Epoch: 2,
		Start: at(16), Dur: 90_000, Args: map[string]int64{"sessions": 3, "epoch": 2}})
	r.RecordSpan(Span{Name: "wide.map", Cat: "map", Rank: CoordinatorRank, Seq: NoSeq, Epoch: 2,
		Start: at(17), Dur: 5, Args: map[string]int64{"m1": 1, "m2": 2, "m3": 3, "m4": 4, "m5": 5}})
	r.RecordSpanArgs(Span{Name: "mixed", Cat: "map", Rank: CoordinatorRank, Seq: NoSeq, Epoch: 2,
		Start: at(18), Dur: 6, Args: map[string]int64{"x": 1, "y": 2}}, Arg{"y", 20}, Arg{"z", 30})
	r.RecordSpan(Span{Name: "bare", Rank: 0, Seq: NoSeq, Epoch: 2, Start: at(19), Args: map[string]int64{}})

	// A worker's spans reach the coordinator through Drain and MergeSpans,
	// carrying Args maps.
	worker := New()
	sweep(worker, 1, "prefill", 20, false)
	sweep(worker, 1, "decode", 21, true)
	worker.RecordSpanArgs(Span{Name: "ring.sweep", Cat: "decode", Rank: 1, Seq: NoSeq, Epoch: 2, Start: at(22), Dur: 1},
		Arg{"compute_ns", 1}, Arg{"comm_ns", 2}, Arg{"steps", 1}, Arg{"all2all_ns", 3}, Arg{"extra", 4})
	spans, _ := worker.Drain()
	r.MergeSpans(spans)
}

func exportBoth(t *testing.T, r *Recorder) (jsonl, chrome []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := r.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

func compareGolden(t *testing.T, path, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: export differs from testdata/%s\ngot:\n%s\nwant:\n%s", path, file, got, want)
	}
}

// Every read path exports the golden bytes: Spans encoded one per line,
// both writers, and a Drain → MergeSpans round trip into a fresh recorder.
func TestSpanExportGolden(t *testing.T) {
	r := goldenRecorder()
	jsonl, chrome := exportBoth(t, r)
	if *update {
		for file, b := range map[string][]byte{"spans.jsonl.golden": jsonl, "spans.chrome.golden": chrome} {
			if err := os.WriteFile(filepath.Join("testdata", file), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareGolden(t, "WriteJSONL", "spans.jsonl.golden", jsonl)
	compareGolden(t, "WriteChromeTrace", "spans.chrome.golden", chrome)

	var viaSpans bytes.Buffer
	enc := json.NewEncoder(&viaSpans)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "Spans", "spans.jsonl.golden", viaSpans.Bytes())

	drained, _ := r.Drain()
	merged := New()
	merged.MergeSpans(drained)
	jsonl, chrome = exportBoth(t, merged)
	compareGolden(t, "Drain → MergeSpans, WriteJSONL", "spans.jsonl.golden", jsonl)
	compareGolden(t, "Drain → MergeSpans, WriteChromeTrace", "spans.chrome.golden", chrome)

	// A drained recorder records the same spans again, Index aside.
	recordGolden(r)
	again, _ := r.Drain()
	if len(again) != len(drained) {
		t.Fatalf("second drain returned %d spans, the first %d", len(again), len(drained))
	}
	for i := range again {
		a, d := again[i], drained[i]
		a.Index, d.Index = 0, 0
		if !reflect.DeepEqual(a, d) {
			t.Errorf("span %d after a drain reads %+v, before it %+v", i, a, d)
		}
	}
}

// The golden's ring.sweep spans are recorded as pairs; SweepTimer.Finish
// records the same span, arguments and all, for the same numbers.
func TestFinishRecordsTheGoldenSweepShape(t *testing.T) {
	for _, a2a := range []bool{false, true} {
		viaTimer, viaPairs := New(), New()
		tr := viaTimer.Sweep(2, 5, "decode")
		tr.computeNs, tr.commNs = 1234, 567
		args := []Arg{{"compute_ns", 1234}, {"comm_ns", 567}, {"steps", 3}}
		if a2a {
			tr.a2aNs, tr.hasA2A = 89, true
			args = append(args, Arg{"all2all_ns", 89})
		}
		tr.Finish(3)
		got := viaTimer.Spans()
		if len(got) != 1 {
			t.Fatalf("Finish recorded %d spans, want 1", len(got))
		}
		if got[0].Start == 0 || got[0].Dur < 0 || got[0].Dur > int64(time.Hour) {
			t.Fatalf("Finish recorded Start %d, Dur %d", got[0].Start, got[0].Dur)
		}
		viaPairs.RecordSpanArgs(Span{Name: "ring.sweep", Cat: "decode", Rank: 2, Seq: NoSeq, Epoch: 5,
			Start: got[0].Start, Dur: got[0].Dur}, args...)
		if want := viaPairs.Spans(); !reflect.DeepEqual(got, want) {
			t.Errorf("all2all %v: Finish recorded %+v, the pairs %+v", a2a, got, want)
		}
	}
}
