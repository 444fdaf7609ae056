// Package parallel provides the shared worker pool that fans the attention
// kernels out over independent tiles of work. The pool exists because every
// CP rank in this repo is a goroutine on one host process: giving each kernel
// its own throwaway goroutines would oversubscribe the scheduler, while a
// single shared, bounded pool keeps total kernel concurrency pinned to the
// machine (GOMAXPROCS by default, overridable with SetWorkers or the
// CP_WORKERS environment variable).
//
// The pool is deliberately oblivious to what it runs: For(n, fn) splits
// [0, n) into contiguous chunks and executes fn(lo, hi) once per chunk, on
// the caller plus up to Workers()-1 pool goroutines. Chunks are claimed with
// an atomic cursor, so load balances dynamically; the caller always
// participates in draining its own job, which makes nested For calls
// deadlock-free (a worker that issues a For drains that inner job itself).
//
// Determinism contract: For guarantees every index range is executed exactly
// once, but says nothing about which goroutine runs it or in what order.
// Callers that need bit-identical results across worker counts — the
// attention kernels do — must make fn(lo, hi) write only to cells owned by
// [lo, hi) and compute each cell identically regardless of partitioning.
package parallel

import (
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

// maxPoolWorkers bounds the resident pool goroutines regardless of how high
// SetWorkers is pushed; blocked receivers are cheap but not free.
const maxPoolWorkers = 64

var (
	workers atomic.Int64

	poolMu      sync.Mutex
	poolStarted int
	jobCh       chan *job

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
	SerialJobs   int64 `json:"serial_jobs"`   // jobs run inline (width 1 or n == 1)
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

// job is one For call: a chunked index space drained cooperatively by the
// caller and any pool workers that pick it up.
type job struct {
	n      int
	chunk  int
	chunks int
	fn     func(lo, hi int)
	next   atomic.Int64
	wg     sync.WaitGroup
	// aborted flips when a chunk panics; remaining chunks are skipped and the
	// first panic value is rethrown on the caller's goroutine.
	aborted  atomic.Bool
	panicVal atomic.Pointer[any]
}

// run drains chunks until the cursor passes the end. stolen marks pool-side
// execution for the stats counters.
func (j *job) run(stolen bool) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.chunks {
			return
		}
		j.runChunk(i, stolen)
	}
}

func (j *job) runChunk(i int, stolen bool) {
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
	j.fn(lo, hi)
	statChunks.Add(1)
	if stolen {
		statChunksStolen.Add(1)
	}
}

// ensurePool starts pool goroutines lazily so importing the package costs
// nothing until the first parallel job.
func ensurePool(want int) {
	if want > maxPoolWorkers {
		want = maxPoolWorkers
	}
	poolMu.Lock()
	for poolStarted < want {
		poolStarted++
		go func() {
			for jb := range jobCh {
				jb.run(true)
			}
		}()
	}
	poolMu.Unlock()
}

// For executes fn over [0, n) split into contiguous chunks. With width 1 (or
// n <= 1) it runs fn(0, n) inline — the exact serial path. Otherwise the
// caller and up to width-1 pool workers drain the chunks cooperatively. For
// returns when every chunk has finished; a panic inside fn is rethrown on
// the caller's goroutine after the job drains.
func For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w <= 1 || n == 1 {
		statSerialJobs.Add(1)
		fn(0, n)
		return
	}
	chunks := w * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	j := &job{n: n, chunk: size, chunks: chunks, fn: fn}
	j.wg.Add(chunks)
	ensurePool(w - 1)
	// Invite up to w-1 helpers. Sends are non-blocking: if the queue is
	// saturated the caller simply drains more of its own job.
invite:
	for i := 0; i < w-1; i++ {
		select {
		case jobCh <- j:
		default:
			break invite
		}
	}
	j.run(false)
	j.wg.Wait()
	statJobs.Add(1)
	if p := j.panicVal.Load(); p != nil {
		panic(*p)
	}
}
