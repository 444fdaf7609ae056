package transformer

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/testsupport"
)

// An in-process cluster's rank goroutines live as long as its plane: Close
// ends them, and so does dropping the cluster without Close, once the
// collector finds it unreachable. A closed cluster refuses commands rather
// than hanging on ranks that are gone.
func TestMemPlaneRankGoroutinesEndWithThePlane(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	w, err := NewWeights(Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	settle := func(what string, baseline int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), baseline)
			}
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
	}
	serve := func() *Cluster {
		c, err := NewCluster(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PrefillNext(1, []int{4, 19, 22, 7}, model.PassKV); err != nil {
			t.Fatal(err)
		}
		return c
	}

	parallel.For(1<<10, func(lo, hi int) {}) // the kernel worker pool starts once and stays
	baseline := runtime.NumGoroutine()
	c := serve()
	if n := runtime.NumGoroutine(); n < baseline+3 {
		t.Fatalf("a 3-rank cluster runs %d goroutines over the baseline, want its 3 ranks", n-baseline)
	}
	c.Close()
	settle("after Close", baseline)
	if _, err := c.DecodeNext([]int{1}, []int{5}); err == nil {
		t.Fatal("a closed cluster ran a decode step")
	}

	serve() // dropped without Close
	settle("after the cluster was dropped", baseline)
}

// ranksParked reports whether every in-process rank goroutine is parked on
// its command channel, as runtime.Stack prints their states. A plane being
// torn down by a cleanup has ranks that run on their way out, so it reads a
// few times, a millisecond apart, before it says no.
func ranksParked() bool {
	buf := make([]byte, 1<<16)
	for range 5 {
		for {
			if n := runtime.Stack(buf, true); n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		parked := true
		for _, g := range strings.Split(string(buf), "\n\n") {
			head, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, ".(*memRanks).serve(") && !strings.Contains(head, "[chan receive") {
				parked = false
			}
		}
		if parked {
			return true
		}
		buf = buf[:cap(buf)]
		time.Sleep(time.Millisecond)
	}
	return false
}

// A rank takes its next command whenever it lands: while the rank still
// polls its channel after its last reply (a command sent at once), and after
// it has parked on the channel (a command sent well past the poll budget,
// by when every rank must have stopped polling). And stop() while
// the ranks poll ends them all: the channel's close reaches a polling rank
// as it reaches a parked one, and stop returns once every rank has exited.
func TestMemPlaneCommandPollThenPark(t *testing.T) {
	w, err := NewWeights(Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *memPlane {
		c, err := NewCluster(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c.plane.(*memPlane)
	}
	drop := &wire.DropCmd{Seq: 1}
	bcast := func(p *memPlane, what string, round int) {
		t.Helper()
		replies, err := p.bcast(drop)
		if err != nil {
			t.Fatalf("%s, round %d: %v", what, round, err)
		}
		for r, reply := range replies {
			if ack, ok := reply.(*wire.Ack); !ok || ack.Err != "" {
				t.Fatalf("%s, round %d: rank %d replied %#v", what, round, r, reply)
			}
		}
	}

	p := dial()
	for i := 0; i < 50; i++ {
		bcast(p, "during the poll", i)
	}
	for i := 0; i < 10; i++ {
		time.Sleep(100 * transport.PollBudget)
		if !ranksParked() {
			t.Fatalf("round %d: a rank has not parked %v after its last command", i, 100*transport.PollBudget)
		}
		bcast(p, "after the park", i)
	}
	for i := 0; i < 20; i++ {
		p := dial()
		bcast(p, "before the stop", i)
		stopped := make(chan struct{})
		go func() {
			p.stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(time.Second):
			t.Fatalf("round %d: stop while the ranks polled has not returned after 1 s", i)
		}
		if _, err := p.bcast(drop); err == nil {
			t.Fatalf("round %d: a stopped plane ran a command", i)
		}
	}
}
