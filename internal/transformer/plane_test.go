package transformer

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/parallel"
)

// An in-process cluster's rank goroutines live as long as its plane: Close
// ends them, and so does dropping the cluster without Close, once the
// collector finds it unreachable. A closed cluster refuses commands rather
// than hanging on ranks that are gone.
func TestMemPlaneRankGoroutinesEndWithThePlane(t *testing.T) {
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
