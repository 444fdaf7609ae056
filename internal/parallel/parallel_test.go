package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(old) })
}

// Every index must be visited exactly once, at any width, including widths
// far beyond GOMAXPROCS and n.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 33} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			func() {
				old := SetWorkers(w)
				defer SetWorkers(old)
				counts := make([]int32, n)
				For(n, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("w=%d n=%d bad chunk [%d,%d)", w, n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("w=%d n=%d index %d visited %d times", w, n, i, c)
					}
				}
			}()
		}
	}
}

// Nested For must not deadlock: the caller of the inner job drains it
// itself even when every pool worker is busy.
func TestForNestedDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4)
	var total atomic.Int64
	For(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(16, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested total %d, want %d", got, 8*16)
	}
}

// A panic inside fn must surface on the caller, not kill a pool goroutine,
// and the pool must remain usable afterwards.
func TestForPanicPropagatesToCaller(t *testing.T) {
	withWorkers(t, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		For(64, func(lo, hi int) {
			if lo == 0 {
				panic("boom")
			}
		})
	}()
	// Pool still works.
	var n atomic.Int64
	For(64, func(lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 64 {
		t.Fatalf("pool broken after panic: %d", n.Load())
	}
}

func TestSetWorkersClampsAndRestores(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("Workers() after SetWorkers(0) = %d, want 1", Workers())
	}
	SetWorkers(3)
}

func TestSnapshotCountsJobs(t *testing.T) {
	withWorkers(t, 2)
	before := Snapshot()
	For(100, func(lo, hi int) {})
	after := Snapshot()
	if after.Jobs <= before.Jobs {
		t.Fatalf("parallel job not counted: %+v -> %+v", before, after)
	}
	withWorkers(t, 1)
	before = Snapshot()
	For(100, func(lo, hi int) {})
	after = Snapshot()
	if after.SerialJobs <= before.SerialJobs {
		t.Fatalf("serial job not counted: %+v -> %+v", before, after)
	}
}

// Recycled jobs never reach a stale hand: nested calls, a chunk that panics
// and plain calls run back to back from several goroutines at widths 1, 2
// and 8, and every call must still visit each of its indices exactly once.
// A job handed back to the free list while an invitation to it still sits in
// the queue would be refilled under the worker that then picks it up, which
// the race detector reports and the visit counts catch.
func TestJobRecyclingUnderStress(t *testing.T) {
	const callers, rounds = 4, 200
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					n := 1 + (i*7+c*13)%97
					counts := make([]int32, n)
					visit := func(lo, hi int) {
						for k := lo; k < hi; k++ {
							atomic.AddInt32(&counts[k], 1)
						}
					}
					switch i % 3 {
					case 0:
						For(n, visit)
					case 1:
						var inner atomic.Int64
						For(n, func(lo, hi int) {
							visit(lo, hi)
							For(9, func(ilo, ihi int) { inner.Add(int64(ihi - ilo)) })
						})
						if got := inner.Load(); got%9 != 0 || got == 0 {
							t.Errorf("w=%d: nested calls covered %d indices, not a multiple of 9", w, got)
						}
					case 2:
						panicked := func() (p bool) {
							defer func() { p = recover() != nil }()
							For(n, func(lo, hi int) {
								if lo == 0 {
									panic("chunk 0")
								}
							})
							return false
						}()
						if !panicked {
							t.Errorf("w=%d: a chunk's panic did not reach the caller", w)
						}
						For(n, visit)
					}
					for k, got := range counts {
						if got != 1 {
							t.Errorf("w=%d n=%d: index %d visited %d times", w, n, k, got)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// A warm RunRecycled allocates nothing: the pool's job and the copy of the
// task both come off free lists.
func TestRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	withWorkers(t, 4)
	var total atomic.Int64
	tasks := NewFreeList[sumTask](8, nil)
	run := func() { RunRecycled(tasks, 64, sumTask{n: &total}) }
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("a warm RunRecycled allocates %.1f objects, want 0", got)
	}
	if got := total.Load(); got != 102*64 { // AllocsPerRun runs once more than asked, to warm up
		t.Fatalf("the runs covered %d indices, want %d", got, 102*64)
	}
}

type sumTask struct{ n *atomic.Int64 }

func (s *sumTask) Run(lo, hi int) { s.n.Add(int64(hi - lo)) }
