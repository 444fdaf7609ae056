package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAggregates(t *testing.T) {
	r := New()
	r.Record("attn", 10*time.Millisecond)
	r.Record("attn", 30*time.Millisecond)
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
	r.Record("z", 1)
	r.Record("a", 1)
	r.Record("m", 1)
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "z" {
		t.Fatalf("names = %v", names)
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Record("x", 1)
	r.Reset()
	if len(r.Names()) != 0 {
		t.Fatal("reset left residue")
	}
}

func TestStringContainsSpans(t *testing.T) {
	r := New()
	r.Record("ring.sendrecv", 5*time.Microsecond)
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
				r.Record("op", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := r.Stat("op"); s.Count != 800 {
		t.Fatalf("concurrent count = %d, want 800", s.Count)
	}
}

// A steady-state sweep resolves nothing: Sweep allocates the SweepTimer and
// no more, and the whole Sweep…Finish adds only what the ring.sweep span
// itself needs (its Args map), however many sweeps came before.
func TestSweepSteadyStateAllocatesOnlyTheTimer(t *testing.T) {
	r := New()
	r.Sweep(1, 7, "decode").Finish(2) // first sweep of the pair resolves the four series
	if got := testing.AllocsPerRun(200, func() { r.Sweep(1, 7, "decode") }); got != 1 {
		t.Fatalf("steady-state Sweep allocates %v objects, want 1 (the SweepTimer)", got)
	}
	span := testing.AllocsPerRun(200, func() {
		r.RecordSpan(Span{Name: "ring.sweep", Args: map[string]int64{"compute_ns": 1, "comm_ns": 2, "steps": 3}})
	})
	if got := testing.AllocsPerRun(200, func() { r.Sweep(1, 7, "decode").Finish(2) }); got > 1+span {
		t.Fatalf("steady-state Sweep…Finish allocates %v objects, want at most 1 + the span's %v", got, span)
	}
	if n := r.CounterSeries("cp_ring_sweeps_total", L("op", "decode"), L("rank", "1")).Value(); n != 202 {
		t.Fatalf("cp_ring_sweeps_total = %v, want 202", n)
	}
}
