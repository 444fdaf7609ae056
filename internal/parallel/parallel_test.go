package parallel

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testsupport"
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
	if testsupport.Alone(t) {
		return
	}
	withWorkers(t, 4)
	var total atomic.Int64
	tasks := NewFreeList[sumTask](8, nil)
	run := func() { RunRecycled(tasks, 64, MinWork, sumTask{n: &total}) }
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("a warm RunRecycled allocates %.1f objects, want 0", got)
	}
	if got := total.Load(); got != 102*64 { // AllocsPerRun runs once more than asked, to warm up
		t.Fatalf("the runs covered %d indices, want %d", got, 102*64)
	}
}

type sumTask struct{ n *atomic.Int64 }

func (s *sumTask) Run(_, lo, hi int) { s.n.Add(int64(hi - lo)) }

// Each slot has one user at a time: at widths 2 and 8, with four callers
// fanning out at once, every chunk runs on a slot that no other chunk of its
// job or a concurrent one holds, except slot 0, which is each caller's own.
// EachWorker reaches every pool goroutine once, so every slot a chunk runs on
// is one it reached.
func TestRunSlotsHaveOneUserAtATime(t *testing.T) {
	for _, w := range []int{2, 8} {
		withWorkers(t, w)
		var reached [Slots]atomic.Int32
		EachWorker(func(w int) { reached[w].Add(1) })
		for s := range reached {
			if got := reached[s].Load(); s >= 1 && s < w && got != 1 {
				t.Fatalf("width %d: EachWorker ran %d times on slot %d", w, got, s)
			}
		}
		var busy [Slots]atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					Run(64, MinWork, slotTask{busy: &busy, reached: &reached, t: t})
				}
			}()
		}
		wg.Wait()
	}
}

type slotTask struct {
	busy    *[Slots]atomic.Bool
	reached *[Slots]atomic.Int32
	t       *testing.T
}

func (s slotTask) Run(w, lo, hi int) {
	if w == 0 {
		return // the caller's own
	}
	if w >= Slots || s.reached[w].Load() == 0 {
		s.t.Errorf("a chunk ran on slot %d, which EachWorker did not reach", w)
		return
	}
	if !s.busy[w].CompareAndSwap(false, true) {
		s.t.Errorf("two chunks ran on slot %d at once", w)
		return
	}
	for i := lo; i < hi; i++ {
		runtime.Gosched()
	}
	s.busy[w].Store(false)
}

// The size rule: at any width, a job stating less than MinWork runs inline
// on the caller as one range and counts as serial, and a job at MinWork goes
// to the pool.
func TestRunDispatchesOnlyAtMinWork(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	withWorkers(t, 4)
	for _, c := range []struct {
		work   int
		worked bool
	}{{0, false}, {MinWork - 1, false}, {MinWork, true}, {4 * MinWork, true}} {
		if Worth(c.work) != c.worked {
			t.Fatalf("Worth(%d) = %v", c.work, !c.worked)
		}
		before := Snapshot()
		calls := 0
		var covered atomic.Int64
		Run(64, c.work, Func(func(lo, hi int) {
			if !c.worked {
				calls++ // inline: only the caller runs it
			}
			covered.Add(int64(hi - lo))
		}))
		after := Snapshot()
		if covered.Load() != 64 {
			t.Fatalf("work %d: covered %d of 64 indices", c.work, covered.Load())
		}
		jobs, serial := after.Jobs-before.Jobs, after.SerialJobs-before.SerialJobs
		if c.worked && (jobs != 1 || serial != 0) || !c.worked && (jobs != 0 || serial != 1 || calls != 1) {
			t.Fatalf("work %d: jobs %d, serial %d, inline calls %d", c.work, jobs, serial, calls)
		}
	}
}

// BenchmarkPoolDispatch is the denominator of the pool's size rule
// (MinWork): what one dispatch costs the caller. Each op is a Run of two
// chunks at width 2 whose chunks wait for each other, so it returns only
// after a pool worker has woken, taken its chunk and been joined; the chunks
// do no work, so dispatch-ns is all overhead. /parked sleeps 1 ms off the
// clock before each op, long enough for the idle worker to park (the case of
// a rank that fans out between a decode step's handoffs); /hot dispatches
// back to back, to a worker still spinning for its next job.
func BenchmarkPoolDispatch(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a worker and its caller need two Ps")
	}
	old := SetWorkers(2)
	defer SetWorkers(old)
	for _, mode := range []string{"hot", "parked"} {
		b.Run(mode, func(b *testing.B) {
			var arrived atomic.Int32
			meet := Func(func(lo, hi int) {
				arrived.Add(1)
				for arrived.Load() < 2 {
					runtime.Gosched()
				}
			})
			var spent time.Duration
			for i := 0; i < b.N; i++ {
				if mode == "parked" {
					time.Sleep(time.Millisecond)
				}
				arrived.Store(0)
				t0 := time.Now()
				Run(2, MinWork, meet)
				spent += time.Since(t0)
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "dispatch-ns")
		})
	}
}

// goid is the calling goroutine's id, from its stack header.
func goid() int {
	var buf [64]byte
	id, _ := strconv.Atoi(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1])
	return id
}

// startHelpers starts n goroutines that poll a channel nobody sends on, in
// rounds of a millisecond, as waiting in-process ranks do, and returns their
// goroutine ids, which are final once it returns. The goroutines end at the
// test's cleanup.
func startHelpers(t *testing.T, n int) map[int]bool {
	ids, never := make(chan int, n), make(chan struct{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- goid()
			for !stop.Load() {
				Poll(never, time.Millisecond)
			}
		}()
	}
	t.Cleanup(func() { stop.Store(true); wg.Wait() })
	helpers := map[int]bool{}
	for range n {
		helpers[<-ids] = true
	}
	return helpers
}

// A goroutine that polls (Poll) helps the pool. Three rules keep it safe:
//   - slots: a helper runs chunks only on a helper slot, never on slot 0
//     (each caller's own) or on a pool goroutine's, and no two chunks share
//     a slot at once; a caller runs its chunks on slot 0 and pool goroutines
//     on theirs, with jobs below MinWork reaching helpers alone;
//   - stale: an invitation that a helper finds after its job has ended is
//     released without calling the task;
//   - panic: a panic in a helper's chunk is rethrown on the caller.
func TestPollingHelpers(t *testing.T) {
	t.Run("slots", func(t *testing.T) {
		withWorkers(t, 4)
		helpers := startHelpers(t, 2)
		var reached [Slots]atomic.Int32
		EachWorker(func(w int) { reached[w].Add(1) })
		for s := firstHelperSlot; s < Slots; s++ {
			if reached[s].Load() != 1 {
				t.Fatalf("EachWorker ran %d times on helper slot %d", reached[s].Load(), s)
			}
		}
		before := Snapshot()
		var busy [Slots]atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					work := MinHelpWork
					if i%4 == 3 {
						work = MinWork
					}
					Run(64, work, helperTask{t: t, caller: goid(), helpers: helpers, busy: &busy, pool: work >= MinWork})
				}
			}()
		}
		wg.Wait()
		if d := Snapshot().HelpedChunks - before.HelpedChunks; d == 0 {
			t.Fatalf("the polling goroutines helped with no chunk of 200 jobs")
		}
	})

	t.Run("stale", func(t *testing.T) {
		var calls atomic.Int32
		j := jobs.Get()
		j.n, j.chunk, j.chunks, j.task = 4, 1, 4, Func(func(lo, hi int) { calls.Add(1) })
		j.next.Store(int64(j.chunks)) // every chunk claimed: the job has ended
		j.refs.Store(2)               // the caller and the invitation
		select {
		case helpCh <- j:
		default:
			t.Fatalf("the help channel is full: %d leftover invitations", len(helpCh))
		}
		if _, _, received := Poll(make(chan int), time.Millisecond); received {
			t.Fatal("Poll received from a channel nobody sends on")
		}
		if calls.Load() != 0 || j.refs.Load() != 1 {
			t.Fatalf("a stale invitation ran %d chunks and left %d references, want 0 and 1", calls.Load(), j.refs.Load())
		}
		j.release()
	})

	t.Run("panic", func(t *testing.T) {
		withWorkers(t, 2)
		startHelpers(t, 1)
		for attempt := 0; attempt < 100; attempt++ {
			var started atomic.Bool
			got := func() (p any) {
				defer func() { p = recover() }()
				Run(2, MinHelpWork, Task(panicTask{started: &started}))
				return nil
			}()
			if started.Load() {
				if got != "helper chunk" {
					t.Fatalf("Run rethrew %v after a helper's chunk panicked", got)
				}
				return
			}
		}
		t.Fatal("no helper joined 100 jobs")
	})
}

// helperTask checks the slot rules of TestPollingHelpers for each chunk.
type helperTask struct {
	t       *testing.T
	caller  int
	helpers map[int]bool
	busy    *[Slots]atomic.Bool
	pool    bool // the job invited pool goroutines too
}

func (h helperTask) Run(w, lo, hi int) {
	g := goid()
	switch {
	case g == h.caller:
		if w != 0 {
			h.t.Errorf("the caller ran a chunk on slot %d", w)
		}
		runtime.Gosched() // slot 0 is each caller's own: no busy flag
		return
	case h.helpers[g]:
		if w < firstHelperSlot || w >= Slots {
			h.t.Errorf("a helper ran a chunk on slot %d", w)
			return
		}
	case !h.pool || w < 1 || w >= firstHelperSlot:
		h.t.Errorf("goroutine %d, neither the caller nor a helper, ran a chunk on slot %d (pool invited: %v)", g, w, h.pool)
		return
	}
	if !h.busy[w].CompareAndSwap(false, true) {
		h.t.Errorf("two chunks ran on slot %d at once", w)
		return
	}
	runtime.Gosched()
	h.busy[w].Store(false)
}

// panicTask's chunk panics on a helper; on the caller it waits up to 10 ms
// for a helper to start one.
type panicTask struct{ started *atomic.Bool }

func (p panicTask) Run(w, lo, hi int) {
	if w >= firstHelperSlot {
		p.started.Store(true)
		panic("helper chunk")
	}
	for t0 := time.Now(); !p.started.Load() && time.Since(t0) < 10*time.Millisecond; {
		runtime.Gosched()
	}
}
