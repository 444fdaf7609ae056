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
// per chunk, on the caller plus up to Workers()-1 pool goroutines and the
// helpers that are polling. Chunks are claimed with an atomic cursor, so
// load balances dynamically; the caller always participates in draining its
// own job, which makes nested calls deadlock-free (a worker that issues a Run
// drains that inner job itself).
//
// A helper is a goroutine waiting in Poll for its next hand-off — an
// in-process rank between two ring hops or two commands. Its vCPU would
// otherwise only yield and look again, so between looks it takes one chunk
// of a job whose caller invited the helpers. A job invites them on a channel
// of their own: a pool goroutine parked on the job channel would take an
// invitation sent there before any helper saw it.
//
// w is the chunk's slot, which a kernel indexes its scratch by: 0 for the
// caller of Run, which hands the kernel its own; for a pool goroutine its
// index in [1, 1+maxPoolWorkers), fixed when the pool starts it; for a
// helper one of the helper slots after those, held while it polls. A kernel
// chunk never calls Run again, so each slot has one user at a time and needs
// no lock.
//
// Whether a job is worth the pool at all is decided here, once, for every
// kernel: the caller states the job's work in multiply-adds, and Run
// dispatches only at MinWork or more, or MinHelpWork or more while a helper
// polls (Worth). For(n, fn) is Run over a function with no work stated, which
// the pool's own tests and overhead measurements use to reach the workers
// whatever the job's size.
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
	"time"
)

// chunksPerWorker oversubscribes chunks relative to workers so the atomic
// cursor can rebalance when some chunks run longer than others (e.g. causal
// attention tiles near the end of a sequence attend to more KV).
const chunksPerWorker = 4

// MinWork and MinHelpWork are the pool's one size rule, in multiply-adds:
// Run hands a job to the workers only when its stated work is at least
// MinWork, or at least MinHelpWork while a helper is polling (Poll). Both
// are the break-even W = D·F1 / (1 − 1/s) of a split that saves W/F1 ·
// (1 − 1/s) of W multiply-adds' serial time for a dispatch cost D, from
// committed benchmarks (2-vCPU AVX-512 Xeon, go1.24.0, -cpu 2):
//
//   - BenchmarkPoolDispatch: waking a parked worker and joining it costs
//     D ≈ 4–7 µs in the median, with runs out to 12 µs (/parked); a worker
//     that is still running answers in 1–1.8 µs (/hot).
//   - BenchmarkPeakFMA: one goroutine of sp512 FMAs retires F1 ≈ 70 G
//     multiply-adds/s (131–152 GFLOP/s), two (sp512x2) 1.8 times that.
//   - BenchmarkDotPanel/stream: a 5 MiB weight matrix, twice a core's L2,
//     streams from L3 at 19–21 GB/s on one goroutine and at 36–43 GB/s
//     split across two that are already running. A memory-bound GEMM gains
//     as much from a second goroutine as a compute-bound one (s ≈ 2), not
//     less.
//
// A parked worker is woken onto a vCPU that the cluster's other ranks
// compete for: two busy ranks on two vCPUs leave a two-goroutine fan-out at
// most 4/3 of a CPU where it had one, and s = 1.2 under neighbour load
// applies. W is then 1.7 M at D = 4 µs and 5.0 M at 12 µs; MinWork is 2²²,
// between the two, so a prefill chunk's token blocks and attention tiles
// (tens of millions of multiply-adds a sweep) fan out and no decode-step
// GEMM of the benchmark model wakes a parked worker (the largest, gate/up,
// states 3.7 M: tensor.Mul).
//
// A helper is an in-process rank that polls for its next hand-off: it is
// running, and its vCPU has nothing else to do, so s is the idle two-vCPU
// gain of about 2 and D the hot dispatch. W is then 140–250 K, and
// MinHelpWork is 2¹⁸, above both: every decode-step GEMM of the benchmark
// model (at least 0.9 M as stated) goes to a polling rank, and over TCP,
// where no rank polls, the rule is MinWork alone.
//
// A caller counts its multiply-adds as written; a kernel whose element costs
// more than one vector multiply-add at peak states the multiply-adds that
// take as long instead: a memory-bound GEMM the time its weights take to
// stream (tensor.Mul), attention's scalar fold its division
// (accumulateWork).
const (
	MinWork     = 1 << 22
	MinHelpWork = 1 << 18
)

// maxPoolWorkers bounds the resident pool goroutines regardless of how high
// SetWorkers is pushed; blocked receivers are cheap but not free.
const maxPoolWorkers = 64

// maxHelpers bounds the goroutines that help at once, each on a helper slot
// of its own; a goroutine that polls while every helper slot is held only
// polls.
const maxHelpers = 4

// Slots bounds Task.Run's w: the caller's slot 0, one per pool goroutine,
// then the helper slots from firstHelperSlot.
const (
	firstHelperSlot = 1 + maxPoolWorkers
	Slots           = firstHelperSlot + maxHelpers
)

var (
	workers atomic.Int64

	poolMu      sync.Mutex
	poolStarted int
	jobCh       chan *job
	slotCh      [firstHelperSlot]chan func(int) // EachWorker's functions, by pool goroutine

	helpCh      chan *job    // invitations for helpers
	helperSlots chan int     // the helper slots no helper holds
	growMu      sync.Mutex   // held by EachWorker while it holds helper slots
	helpers     atomic.Int32 // goroutines polling on a helper slot

	statJobs         atomic.Int64 // For calls that dispatched to the pool
	statSerialJobs   atomic.Int64 // For calls that ran inline on the caller
	statChunks       atomic.Int64 // chunks executed across all parallel jobs
	statChunksStolen atomic.Int64 // chunks executed by pool workers (not the caller)
	statHelpedChunks atomic.Int64 // chunks executed by helpers
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
	// Room for an invitation per helper from several callers at once, like
	// jobCh's; a full channel only makes a caller drain more itself.
	helpCh = make(chan *job, 4*maxHelpers)
	helperSlots = make(chan int, maxHelpers)
	for s := firstHelperSlot; s < Slots; s++ {
		helperSlots <- s
	}
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
	SerialJobs   int64 `json:"serial_jobs"`   // jobs run inline (width 1, n == 1 or below the size rule)
	Chunks       int64 `json:"chunks"`        // chunks executed in parallel jobs
	ChunksStolen int64 `json:"chunks_stolen"` // chunks picked up by pool workers
	HelpedChunks int64 `json:"helped_chunks"` // chunks picked up by helpers (Poll)
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	return Stats{
		Workers:      Workers(),
		Jobs:         statJobs.Load(),
		SerialJobs:   statSerialJobs.Load(),
		Chunks:       statChunks.Load(),
		ChunksStolen: statChunksStolen.Load(),
		HelpedChunks: statHelpedChunks.Load(),
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
// caller and any pool workers and helpers that pick it up.
//
// A job is recycled, and its recycling rule is what keeps a stale hand from
// touching the next call's job. refs counts the caller plus every invitation
// that made it into jobCh or helpCh. An invited worker or helper may receive
// its invitation long after the job's chunks are done — the call returned,
// even — and it then reads the cursor and the chunk count before it learns
// there is nothing left. So the caller and each invited hand drop their
// reference only when they are finished with the job, and whichever drops
// the last one returns it to the free list.
type job struct {
	n      int
	chunk  int
	chunks int
	task   Task
	next   atomic.Int64
	refs   atomic.Int32
	wg     sync.WaitGroup
	// helping counts the helpers between claiming a chunk and finishing it:
	// the caller waits for those by polling, for the pool workers' chunks on
	// wg.
	helping atomic.Int32
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
	if w >= firstHelperSlot {
		statHelpedChunks.Add(1)
	} else if w != 0 {
		statChunksStolen.Add(1)
	}
}

// help runs one chunk on helper slot w and reports whether one was left.
func (j *job) help(w int) bool {
	j.helping.Add(1)
	defer j.helping.Add(-1)
	i := int(j.next.Add(1)) - 1
	if i >= j.chunks {
		return false
	}
	j.runChunk(i, w)
	return true
}

// invite offers j to up to n hands on ch, each invitation holding a
// reference, and returns how many it sent. Sends are non-blocking: if the
// queue is saturated the caller simply drains more of its own job.
func (j *job) invite(ch chan *job, n int) int {
	for i := 0; i < n; i++ {
		j.refs.Add(1)
		select {
		case ch <- j:
		default:
			j.refs.Add(-1)
			return i
		}
	}
	return n
}

// withdraw takes back up to n invitations still waiting in helpCh once every
// chunk of j is claimed, so that a helper that polls next does not find them
// and they do not hold j off the free list meanwhile. Another job's
// invitation goes back in the channel.
func (j *job) withdraw(n int) {
	for ; n > 0; n-- {
		var k *job
		select {
		case k = <-helpCh:
		default:
			return
		}
		if k == j {
			k.release()
			continue
		}
		select {
		case helpCh <- k:
		default:
			k.release()
		}
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

// EachWorker runs fn(w) for every slot but the caller's: on every pool
// goroutine, w being its slot, and on the calling goroutine for every helper
// slot, taken from the helpers meanwhile. It returns when all have. A kernel
// grows its workers' and helpers' slots with it once it knows its shapes: a
// pool goroutine or helper runs a chunk only when it wins one from the
// caller, so a slot left to its first chunk could grow in any later call.
// A chunk must not call it.
func EachWorker(fn func(w int)) {
	done := make(chan struct{})
	run := func(w int) { fn(w); done <- struct{}{} }
	for w, n := 1, ensurePool(Workers()-1); w <= n; w++ {
		slotCh[w] <- run
		<-done
	}
	// One caller at a time takes the helper slots: two taking them at once
	// could each hold some and wait for the other's.
	growMu.Lock()
	defer growMu.Unlock()
	var held [maxHelpers]int
	for i := range held {
		held[i] = <-helperSlots
		fn(held[i])
	}
	for _, w := range held {
		helperSlots <- w
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

// Worth reports whether work multiply-adds justify a pool dispatch now: the
// size rule that Run applies (MinWork, or MinHelpWork while a helper polls),
// for a caller that counts its decisions. A helper may come or go before the
// caller's Run, which decides again.
func Worth(work int) bool { return worth(work, int(helpers.Load())) }

func worth(work, polling int) bool {
	return work >= MinWork || work >= MinHelpWork && polling > 0
}

// Run executes task over [0, n) split into contiguous chunks; work is the
// whole job's cost in multiply-adds. With width 1, n <= 1 or work below the
// size rule it runs task.Run(0, 0, n) inline — the exact serial path.
// Otherwise the caller, up to width-1 of the helpers polling and, at MinWork
// or more, up to width-1 pool workers drain the chunks cooperatively. Run
// returns when every chunk has finished, and no pool worker or helper calls
// the task after that; a panic inside the task is rethrown on the caller's
// goroutine after the job drains.
func Run(n, work int, task Task) {
	if n <= 0 {
		return
	}
	w := Workers()
	polling := int(helpers.Load())
	if w <= 1 || n == 1 || !worth(work, polling) {
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
	// Helpers first: they are running, while a pool worker must be woken.
	helped := j.invite(helpCh, min(polling, w-1))
	if work >= MinWork {
		ensurePool(w - 1)
		j.invite(jobCh, w-1)
	}
	j.run(0)
	j.withdraw(helped)
	// A helper's chunk in flight is joined the way the helper waits, by
	// polling, so the caller is running when it ends; only a pool worker's
	// is waited for parked.
	for j.helping.Load() > 0 {
		runtime.Gosched()
	}
	j.wg.Wait()
	statJobs.Add(1)
	p := j.panicVal.Load()
	j.release()
	if p != nil {
		panic(*p)
	}
}

// Poll is the in-process hand-offs' one poll rule: it yields the processor
// and looks at ch, turn after turn, until a value arrives or limit has
// passed, so that a sender who comes within limit hands over to a goroutine
// that is running rather than one that must be woken. received reports
// whether a receive happened, and ok whether it delivered a value rather than
// ch's close. If nothing came, the caller parks on its own terms.
//
// While it polls the goroutine is a helper, when a helper slot is free: at
// each turn it runs one chunk of a job that invited the helpers, if there is
// one, instead of yielding, and then looks at ch again. So a hand-off waits
// at most one chunk longer than it would have.
func Poll[T any](ch <-chan T, limit time.Duration) (v T, ok, received bool) {
	h := enlist()
	for start := time.Now(); time.Since(start) < limit; {
		if !h.help() {
			runtime.Gosched()
		}
		select {
		case v, ok = <-ch:
			h.leave()
			return v, ok, true
		default:
		}
	}
	h.leave()
	return v, false, false
}

// helper is a polling goroutine's hand in the pool: its helper slot (0 when
// none was free) and the job whose invitation it holds.
type helper struct {
	slot int
	j    *job
}

// enlist takes a free helper slot, if there is one, and counts the helper.
func enlist() helper {
	select {
	case w := <-helperSlots:
		helpers.Add(1)
		return helper{slot: w}
	default:
		return helper{}
	}
}

// help runs one chunk of the job it holds or, that job's chunks all claimed,
// of the next invitation that has one left, and reports whether it ran one.
// An invitation whose job has no chunk left is released without calling the
// task.
func (h *helper) help() bool {
	if h.slot == 0 {
		return false
	}
	for {
		if h.j == nil {
			select {
			case h.j = <-helpCh:
			default:
				return false
			}
		}
		if h.j.help(h.slot) {
			return true
		}
		h.j.release()
		h.j = nil
	}
}

// leave lets go of the job it holds and frees its helper slot.
func (h *helper) leave() {
	if h.slot == 0 {
		return
	}
	if h.j != nil {
		h.j.release()
	}
	helpers.Add(-1)
	helperSlots <- h.slot
}
