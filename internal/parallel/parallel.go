// Package parallel provides the shared worker pool that fans the attention
// kernels out over independent tiles of work. The pool exists because every
// CP rank in this repo is a goroutine on one host process: giving each kernel
// its own throwaway goroutines would oversubscribe the scheduler, while a
// single shared, bounded pool keeps total kernel concurrency pinned to the
// machine (GOMAXPROCS by default, overridable with SetWorkers or the
// CP_WORKERS environment variable).
//
// The pool is deliberately oblivious to what it runs: Run(n, work, task)
// splits [0, n) into contiguous chunks and executes task.Run(w, lo, hi) once
// per chunk, on the caller plus up to Workers()-1 pool goroutines. Chunks are
// claimed with an atomic cursor, so load balances dynamically; the caller
// always participates in draining its own job, which makes nested calls
// deadlock-free (a worker that issues a Run drains that inner job itself).
//
// w is the chunk's slot, which a kernel indexes its scratch by: 0 for the
// caller of Run, which hands the kernel its own, and for a pool goroutine its
// index in [1, Slots), fixed when the pool starts it. A kernel chunk never
// calls Run again, so each slot has one user at a time and needs no lock.
//
// Whether a job is worth the pool at all is decided here, once, for every
// kernel: the caller states the job's work in multiply-adds, and Run
// dispatches only at MinWork or more (Worth). For(n, fn) is Run over a
// function with no work stated, which the pool's own tests and overhead
// measurements use to reach the workers whatever the job's size.
//
// A fan-out allocates nothing once warm. The pool recycles its jobs through a
// free list, and a caller on a per-step path hands RunRecycled a task value
// with a FreeList to keep it in, where a closure passed to For would be moved
// to the heap on every call.
//
// Determinism contract: Run guarantees every index range is executed exactly
// once, but says nothing about which goroutine runs it or in what order.
// Callers that need bit-identical results across worker counts — the
// attention kernels do — must make task.Run(w, lo, hi) write only to cells
// owned by [lo, hi) and compute each cell identically regardless of
// partitioning and of w.
package parallel

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// chunksPerWorker oversubscribes chunks relative to workers so the atomic
// cursor can rebalance when some chunks run longer than others (e.g. causal
// attention tiles near the end of a sequence attend to more KV).
const chunksPerWorker = 4

// MinWork is the pool's one size rule, in multiply-adds: Run hands a job to
// the workers only when its stated work is at least this much. It comes from
// two host readings, both committed benchmarks (2-vCPU AVX-512 Xeon, go1.24.0,
// -cpu 2):
//
//   - BenchmarkPoolDispatch/parked: waking a parked worker and joining it
//     costs D ≈ 4 µs in the median, with runs out to 12 µs (/hot, a worker
//     still spinning: 1 µs).
//   - BenchmarkPeakFMA: one goroutine of sp512 FMAs retires F1 ≈ 80 G
//     multiply-adds/s. Two goroutines (sp512x2) retire s·F1, where s reads
//     1.5–2.0 on an idle host and 1.2 under neighbour load. Inside a cluster
//     the fan-out's helper also competes with the other ranks: two busy ranks
//     on two vCPUs leave a two-goroutine fan-out at most 4/3 of a CPU where it
//     had one, so s = 1.2 is the reading that applies.
//
// A split saves W/F1 · (1 − 1/s) of W multiply-adds' serial time, even at
// peak, so it pays only above W = D·F1 / (1 − 1/s) ≈ 1.9 M (5.8 M at D's
// 12 µs). MinWork is 2²², between the two: every decode-step GEMM of the
// benchmark model (at most 8 tokens × [1024, 256] = 2²¹) runs on its rank's
// goroutine, and a prefill chunk's token blocks and attention tiles (tens of
// millions of multiply-adds a sweep) still fan out. A caller counts its
// multiply-adds as written; a memory-bound kernel such as a decode GEMM
// retires them below peak, where two goroutines gain less still, so there
// the rule errs towards running it inline. A scalar kernel whose element
// costs far more than one vector multiply-add states the multiply-adds that
// take as long at peak instead (attention's accumulateWork).
const MinWork = 1 << 22

// maxPoolWorkers bounds the resident pool goroutines regardless of how high
// SetWorkers is pushed; blocked receivers are cheap but not free.
const maxPoolWorkers = 64

// Slots bounds Task.Run's w: the caller's slot 0 and one per pool goroutine.
const Slots = maxPoolWorkers + 1

var (
	workers atomic.Int64

	poolMu      sync.Mutex
	poolStarted int
	jobCh       chan *job
	slotCh      [Slots]chan func(int) // EachWorker's functions, by pool goroutine

	statJobs         atomic.Int64 // For calls that dispatched to the pool
	statSerialJobs   atomic.Int64 // For calls that ran inline on the caller
	statChunks       atomic.Int64 // chunks executed across all parallel jobs
	statChunksStolen atomic.Int64 // chunks executed by pool workers (not the caller)
)

func init() {
	w := runtime.GOMAXPROCS(0)
	if env := os.Getenv("CP_WORKERS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			w = n
		}
	}
	workers.Store(int64(w))
	jobCh = make(chan *job, 4*maxPoolWorkers)
}

// Workers returns the configured kernel fan-out width.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the kernel fan-out width and returns the previous value.
// n < 1 is clamped to 1 (strictly serial: For runs inline on the caller with
// no pool involvement, the baseline the benchmarks compare against).
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int64(n)))
}

// Stats is a snapshot of pool activity counters, exposed through /v1/stats
// so kernel parallelism is observable in a running server.
type Stats struct {
	Workers      int   `json:"workers"`       // configured width
	Jobs         int64 `json:"jobs"`          // parallel jobs dispatched
	SerialJobs   int64 `json:"serial_jobs"`   // jobs run inline (width 1, n == 1 or below MinWork)
	Chunks       int64 `json:"chunks"`        // chunks executed in parallel jobs
	ChunksStolen int64 `json:"chunks_stolen"` // chunks picked up by pool workers
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	return Stats{
		Workers:      Workers(),
		Jobs:         statJobs.Load(),
		SerialJobs:   statSerialJobs.Load(),
		Chunks:       statChunks.Load(),
		ChunksStolen: statChunksStolen.Load(),
	}
}

// Task is the work of one Run call: Run(w, lo, hi) executes indices
// [lo, hi) on slot w.
type Task interface {
	Run(w, lo, hi int)
}

// Func adapts a function to a Task.
type Func func(lo, hi int)

// Run calls f.
func (f Func) Run(_, lo, hi int) { f(lo, hi) }

// FreeList recycles values between calls. Unlike a sync.Pool it keeps its
// entries across garbage collections, which empty a pool every other cycle.
// It holds at most the number of entries it was made with; keep, when set,
// rejects an entry not worth keeping (one grown past what a typical call
// needs), which is then left to the garbage collector. Safe for concurrent
// use.
type FreeList[T any] struct {
	c    chan *T
	keep func(*T) bool
}

// NewFreeList returns a free list of up to n entries; keep may be nil.
func NewFreeList[T any](n int, keep func(*T) bool) FreeList[T] {
	return FreeList[T]{c: make(chan *T, n), keep: keep}
}

// Get returns an idle entry, or a new zero one when none is idle.
func (f FreeList[T]) Get() *T {
	select {
	case x := <-f.c:
		return x
	default:
		return new(T)
	}
}

// Put returns x to the list, or drops it when keep rejects it or the list is
// full. The caller must not touch x afterwards.
func (f FreeList[T]) Put(x *T) {
	if f.keep != nil && !f.keep(x) {
		return
	}
	select {
	case f.c <- x:
	default:
	}
}

// job is one Run call: a chunked index space drained cooperatively by the
// caller and any pool workers that pick it up.
//
// A job is recycled, and its recycling rule is what keeps a stale hand from
// touching the next call's job. refs counts the caller plus every invitation
// that made it into jobCh. An invited worker may receive its invitation long
// after the job's chunks are done — the call returned, even — and it then
// reads the cursor and the chunk count before it learns there is nothing
// left. So the caller and each invited worker drop their reference only when
// they are finished with the job, and whichever drops the last one returns
// it to the free list.
type job struct {
	n      int
	chunk  int
	chunks int
	task   Task
	next   atomic.Int64
	refs   atomic.Int32
	wg     sync.WaitGroup
	// aborted flips when a chunk panics; remaining chunks are skipped and the
	// first panic value is rethrown on the caller's goroutine.
	aborted  atomic.Bool
	panicVal atomic.Pointer[any]
}

// jobs holds the idle jobs: more than the calls that can be in flight at once
// (every rank goroutine and pool worker, nested) plus the ones stale
// invitations still hold.
var jobs = NewFreeList[job](4*maxPoolWorkers, nil)

// release drops one reference and recycles the job with the last.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.task = nil
		jobs.Put(j)
	}
}

// run drains chunks until the cursor passes the end, on slot w's goroutine.
func (j *job) run(w int) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.chunks {
			return
		}
		j.runChunk(i, w)
	}
}

func (j *job) runChunk(i, w int) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			// Copy before taking the address: &r would move r to the heap on
			// every chunk, panic or not.
			val := r
			j.panicVal.CompareAndSwap(nil, &val)
			j.aborted.Store(true)
		}
	}()
	if j.aborted.Load() {
		return
	}
	lo := i * j.chunk
	hi := lo + j.chunk
	if hi > j.n {
		hi = j.n
	}
	j.task.Run(w, lo, hi)
	statChunks.Add(1)
	if w != 0 {
		statChunksStolen.Add(1)
	}
}

// ensurePool starts pool goroutines lazily so importing the package costs
// nothing until the first parallel job; the k-th is slot k. It returns how
// many run.
func ensurePool(want int) int {
	if want > maxPoolWorkers {
		want = maxPoolWorkers
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	for poolStarted < want {
		poolStarted++
		slotCh[poolStarted] = make(chan func(int))
		go func(w int) {
			for {
				select {
				case jb := <-jobCh:
					jb.run(w)
					jb.release()
				case fn := <-slotCh[w]:
					fn(w)
				}
			}
		}(poolStarted)
	}
	return poolStarted
}

// EachWorker runs fn(w) on every pool goroutine, w being its slot, and
// returns when all have. A kernel grows its workers' slots with it once it
// knows its shapes: a pool goroutine runs a chunk only when it wins one from
// the caller, so a slot left to its first chunk could grow in any later call.
// A chunk must not call it.
func EachWorker(fn func(w int)) {
	done := make(chan struct{})
	run := func(w int) { fn(w); done <- struct{}{} }
	for w, n := 1, ensurePool(Workers()-1); w <= n; w++ {
		slotCh[w] <- run
		<-done
	}
}

// RunRecycled is Run over a copy of task held in an entry of tasks, which
// goes back to the list, cleared, once Run returns: a per-step caller's
// fan-out allocates nothing once the list holds an entry for each call that
// can run at once.
func RunRecycled[T any, P interface {
	*T
	Task
}](tasks FreeList[T], n, work int, task T) {
	t := tasks.Get()
	*t = task
	Run(n, work, P(t))
	var zero T
	*t = zero
	tasks.Put(t)
}

// For executes fn over [0, n) split into contiguous chunks: Run over fn with
// no work stated, so it reaches the workers whatever n is (the pool's tests
// and its dispatch-overhead measurements). A closure handed to For escapes
// to the heap; a kernel states its work to RunRecycled instead.
func For(n int, fn func(lo, hi int)) { Run(n, math.MaxInt, Func(fn)) }

// Worth reports whether work multiply-adds justify a pool dispatch: the size
// rule (MinWork) that Run applies, for a caller that counts its decisions.
func Worth(work int) bool { return work >= MinWork }

// Run executes task over [0, n) split into contiguous chunks; work is the
// whole job's cost in multiply-adds. With width 1, n <= 1 or work below
// MinWork it runs task.Run(0, 0, n) inline — the exact serial path. Otherwise
// the caller and up to width-1 pool workers drain the chunks cooperatively.
// Run returns when every chunk has finished, and no pool worker calls the
// task after that; a panic inside the task is rethrown on the caller's
// goroutine after the job drains.
func Run(n, work int, task Task) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w <= 1 || n == 1 || !Worth(work) {
		statSerialJobs.Add(1)
		task.Run(0, 0, n)
		return
	}
	chunks := w * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	j := jobs.Get()
	j.n, j.chunk, j.chunks, j.task = n, size, chunks, task
	j.next.Store(0)
	j.aborted.Store(false)
	j.panicVal.Store(nil)
	j.refs.Store(1)
	j.wg.Add(chunks)
	ensurePool(w - 1)
	// Invite up to w-1 helpers, each holding a reference until it is done
	// with the job. Sends are non-blocking: if the queue is saturated the
	// caller simply drains more of its own job.
invite:
	for i := 0; i < w-1; i++ {
		j.refs.Add(1)
		select {
		case jobCh <- j:
		default:
			j.refs.Add(-1)
			break invite
		}
	}
	j.run(0)
	j.wg.Wait()
	statJobs.Add(1)
	p := j.panicVal.Load()
	j.release()
	if p != nil {
		panic(*p)
	}
}
