package trace

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// recordSweeps records n ring.sweep spans with all four arguments through
// SweepTimer.Finish, the path every layer of every rank takes.
func recordSweeps(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		tr := r.Sweep(1, 3, "decode")
		t0 := tr.Clock()
		tr.Compute(t0)
		tr.Comm(t0)
		tr.A2A(t0)
		tr.Finish(2)
	}
}

// A buffered span is one 80-byte record, arguments inline: 4,096 sweep
// spans with four arguments allocate their records' blocks and nothing per
// span. A Span copy plus a side block of pairs took about 235 B a span.
func TestSpanRecordBytes(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 80 {
		t.Fatalf("a span record is %d bytes, want 80", got)
	}
	const spans, budget = 4096, 96
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := New()
	recordSweeps(r, 1) // resolves the sweep's series and interns its shape
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recordSweeps(r, spans)
	runtime.ReadMemStats(&m1)
	perSpan := float64(m1.TotalAlloc-m0.TotalAlloc) / spans
	t.Logf("%.1f B per recorded span", perSpan)
	if perSpan > budget {
		t.Fatalf("recording a sweep span allocates %.1f B, want <= %d", perSpan, budget)
	}
	if n := r.SpanCount(); n != spans+1 {
		t.Fatalf("buffered %d spans, want %d", n, spans+1)
	}
	for _, s := range r.Spans() {
		if len(s.Args) != 4 {
			t.Fatalf("a sweep span reads %d arguments, want 4: %v", len(s.Args), s.Args)
		}
	}
}

// BenchmarkRecordSweepSpan records one four-argument ring.sweep span per
// op; B/op is what the span buffer grows by a span. The buffer is emptied
// every 4,096 spans, so the cap never drops one and the run stays small.
func BenchmarkRecordSweepSpan(b *testing.B) {
	r := New()
	recordSweeps(r, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			r.mu.Lock()
			r.spans = spanBuf{}
			r.mu.Unlock()
		}
		tr := r.Sweep(1, 3, "decode")
		tr.A2A(time.Time{})
		tr.Finish(2)
	}
}

// Ranks record spans of many shapes, some too wide for a record, while the
// coordinator drains and exports: every span comes out once, with its own
// arguments, and interning a new shape never disturbs a drain reading the
// table outside the lock.
func TestConcurrentShapesAndDrains(t *testing.T) {
	const ranks, perRank = 4, 600
	keys := []string{"a", "b", "c", "d", "e", "f"}
	r := New()
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := make([]Arg, 0, len(keys))
			for j := 0; j < perRank; j++ {
				args = args[:0]
				for _, k := range keys[:j%(len(keys)+1)] {
					args = append(args, Arg{k, int64(j)})
				}
				r.RecordSpanArgs(Span{Name: fmt.Sprintf("op%d", j%7), Cat: fmt.Sprintf("rank%d", rank), Rank: rank, Seq: j}, args...)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var got []Span
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		r.Spans()
		spans, _ := r.Drain()
		got = append(got, spans...)
	}
	if len(got) != ranks*perRank {
		t.Fatalf("drained %d spans, want %d", len(got), ranks*perRank)
	}
	seen := map[[2]int]bool{}
	for _, s := range got {
		want := s.Seq % (len(keys) + 1)
		if s.Name != fmt.Sprintf("op%d", s.Seq%7) || s.Cat != fmt.Sprintf("rank%d", s.Rank) || len(s.Args) != want {
			t.Fatalf("span %+v, want op%d with %d arguments", s, s.Seq%7, want)
		}
		for k, v := range s.Args {
			if v != int64(s.Seq) {
				t.Fatalf("span %+v: argument %s = %d, want %d", s, k, v, s.Seq)
			}
		}
		if id := [2]int{s.Rank, s.Seq}; seen[id] {
			t.Fatalf("span %v drained twice", id)
		} else {
			seen[id] = true
		}
	}
}

// A span that does not fit a record — a rank past int32, or a new shape
// once the shape table is full — is kept whole and reads back as recorded.
func TestSpilledSpansReadBack(t *testing.T) {
	r := New()
	const wide = 1 << 40
	r.RecordSpanArgs(Span{Name: "far", Rank: wide, Seq: 2, Epoch: 1}, Arg{"k", 1})
	for i := 0; i < maxShapes+3; i++ {
		r.RecordSpanArgs(Span{Name: fmt.Sprintf("s%d", i), Rank: 0, Seq: i, Epoch: 1}, Arg{"i", int64(i)})
	}
	if len(r.shapes) != maxShapes {
		t.Fatalf("interned %d shapes, want the bound %d", len(r.shapes), maxShapes)
	}
	spans, _ := r.Drain()
	if len(spans) != maxShapes+4 {
		t.Fatalf("drained %d spans, want %d", len(spans), maxShapes+4)
	}
	if s := spans[0]; s.Name != "far" || s.Rank != wide || s.Seq != 2 || s.Args["k"] != 1 || len(s.Args) != 1 {
		t.Fatalf("the wide-rank span reads %+v", s)
	}
	for i, s := range spans[1:] {
		if s.Name != fmt.Sprintf("s%d", i) || s.Seq != i || s.Args["i"] != int64(i) || len(s.Args) != 1 {
			t.Fatalf("span %d reads %+v", i, s)
		}
	}
}
