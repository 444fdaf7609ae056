// Package server exposes the context-parallel transformer cluster behind an
// HTTP/JSON inference API with an iteration-level continuous-batching
// scheduler.
//
// The paper's batched ring pass-Q decode (§3.6) and its deployment guidance
// (§4.3) pay off when a serving system fuses many sessions into each ring
// pass. The scheduler here implements the single-host form of that advice:
// a step loop that, every iteration, assembles a mixed batch — one chunk of
// the oldest waiting prefill (chunked to a token budget so long prompts
// never starve decodes) plus the decode step of every active session, fused
// into a single DecodeNext ring sweep. Admission control caps concurrently
// resident sessions so KV memory and queueing stay bounded, and per-class
// queue statistics plus per-iteration batch occupancy make the
// prefill/decode trade-off observable.
//
// The scheduler reaches the outside world through two seams only, the
// executor interface (the ranks) and the now field (the clock), both in this
// file with the configuration and the loop. step.go is one iteration;
// admission.go and overload.go the way in; prefill.go the one chunk path and
// the prefix-reuse policy; recovery.go rebuild and replay; lifecycle.go
// release, close and the stats snapshots; virtual.go a cost-model executor
// on a virtual clock, and the trace replay that drives the loop over it.
package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/model"
	"repro/internal/prefixcache"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// ErrClosed reports work submitted after Close; the HTTP layer maps it to
// 503 Service Unavailable.
var ErrClosed = errors.New("server: scheduler closed")

// ErrReleased reports a request that failed because its session was
// released (or quarantined after an execution fault) mid-flight; the HTTP
// layer maps it to 409 Conflict.
var ErrReleased = errors.New("session released")

// ErrUnknownSession reports a decode for a session with no resident KV;
// the HTTP layer maps it to 404 Not Found.
var ErrUnknownSession = errors.New("unknown session")

func releasedErr(session int) error {
	return fmt.Errorf("server: session %d: %w", session, ErrReleased)
}

// ExecError wraps an internal cluster execution failure — infrastructure,
// not a malformed request; the HTTP layer maps it to 500.
type ExecError struct{ Err error }

func (e *ExecError) Error() string { return e.Err.Error() }
func (e *ExecError) Unwrap() error { return e.Err }

// Class labels a request for scheduling and accounting.
type Class string

const (
	ClassPrefill Class = "prefill"
	ClassDecode  Class = "decode"
)

// DefaultPrefixCacheTokens is the prefix tree's token budget when the config
// leaves it zero.
const DefaultPrefixCacheTokens = 1 << 16

// SchedulerConfig sizes the continuous-batching step loop.
type SchedulerConfig struct {
	// Variant selects the prefill ring algorithm; decode rides pass-Q.
	// model.Auto selects per chunk from the measured KV-cache miss rate
	// (Equation 1): pass-KV at or above the 2·NKV/NH threshold, pass-Q
	// below it — so prefix-cache hits steer warm prefills onto pass-Q.
	Variant     model.Variant
	TokenBudget int // max prompt tokens prefilled per iteration (default 32)
	MaxBatch    int // max sessions fused into one DecodeNext (default 64)
	MaxSessions int // admission cap on resident sessions (default 256)
	MaxTokens   int // cap on a single generate's max_tokens (default 4096)
	// PrefixCacheTokens bounds the prefix-reuse tree that released sessions
	// detach their KV into (block size = TokenBudget). 0 = the default
	// budget; negative disables prefix reuse entirely.
	PrefixCacheTokens int
	// Recover arms fault recovery: cluster infrastructure failures (a dead
	// rank, a broken control plane) trigger an epoch rebuild and a
	// bit-identical replay of every live session's token log instead of
	// faulting the sessions. Requires keeping a per-session token log.
	Recover bool
	// MaxRecoveries bounds the scheduler's lifetime rebuild attempts
	// (default 3 when Recover is set). Once spent, further infrastructure
	// failures fault sessions exactly as they do with Recover off.
	MaxRecoveries int
	// Manual disables the background step loop; callers drive iterations
	// with Step. Tests and the virtual replay use this to pin down exactly
	// what one iteration batches.
	Manual bool
	// BrownoutSLO arms brownout overload control: while the p90 queue wait
	// over the most recent observation window exceeds this bound, new-session
	// admissions are rejected — and waiting admissions already past the bound
	// are shed — with an OverloadError (HTTP 429 + Retry-After). Resident
	// sessions keep decoding. 0 disables brownout.
	BrownoutSLO time.Duration
	// Cohorts pre-registers workload cohort labels: each named cohort gets
	// its cp_cohort_{ttft,itl,e2e}_seconds histograms and request counter up
	// front (exposed at zero before traffic), and the label pool admits a
	// few more seen at runtime before folding the rest into "other" —
	// bounded cardinality no matter what clients send.
	Cohorts []string
}

func (c *SchedulerConfig) applyDefaults() {
	if c.TokenBudget <= 0 {
		c.TokenBudget = 32
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = 4096
	}
	if c.PrefixCacheTokens == 0 {
		c.PrefixCacheTokens = DefaultPrefixCacheTokens
	}
	if c.Recover && c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 3
	}
}

// executor is everything the step loop, the prefix policy and recovery ask
// of the ranks. *transformer.Cluster is the production implementation;
// costExec stands in for it in virtual time. Serving is greedy, so
// it speaks token ids: the rank holding a sampled row runs
// transformer.Argmax on it, and no logits row reaches the scheduler.
// DecodeNext's slice is the executor's own, valid until its next DecodeNext.
type executor interface {
	PrefillNext(seq int, tokens []int, variant model.Variant) (int, error)
	DecodeNext(seqs []int, tokens []int) ([]int, error)
	SeqLen(seq int) int
	AdoptPrefix(seq int, pre *transformer.PrefixKV) error
	DetachPrefix(seq, upTo int) (*transformer.PrefixKV, error)
	Drop(seq int)
	Rebuild() error
	Epoch() uint64
	Failures() <-chan transport.FailureEvent
}

// wallClock is the package's one read of the real clock: every timestamp the
// scheduler and the HTTP layer take comes through Scheduler.now.
func wallClock() time.Time {
	return time.Now() //cplint:allow determinism the one real clock; tests and the virtual replay inject a virtual one through Scheduler.now
}

// Scheduler is the continuous-batching engine. All executor calls happen on
// the step loop (or the Step caller in manual mode), so the cluster needs no
// internal locking; WithCluster serializes outside reads against it.
type Scheduler struct {
	cfg   SchedulerConfig
	exec  executor
	model model.Config     // the served model, captured at construction
	now   func() time.Time // wallClock, or a virtualClock's Now
	// cluster is exec's concrete value, held only for WithCluster's stats
	// readers; nil over a costExec.
	cluster *transformer.Cluster

	mu        sync.Mutex
	cond      *sync.Cond
	admit     []*request // new sessions waiting for an admission slot
	prefills  []*request // prefill-phase queue, FIFO; head progresses chunk-wise
	decodes   []*request // decode-phase pool, fused each iteration
	sessions  map[int]bool
	prefilled map[int]bool // sessions with at least one chunk of KV resident
	// pendingDrops are sessions whose KV must be evicted (releases detach
	// their canonical prefix into the prefix tree first). Drops execute at
	// the start of the next Step — on the same thread as all other cluster
	// mutations — so an eviction can never race an in-flight chunk or
	// fused batch, nor land after a re-admitted same-id session's fresh
	// prefill.
	pendingDrops []sessionDrop
	// history holds, per session, the tokens of its canonical prefix: the
	// aligned prefix whose per-rank KV placement matches a cold prefill's.
	// It grows only while prefill chunks land exactly on TokenBudget
	// boundaries with full-budget length, and freezes forever at the first
	// tail chunk or decode step. Only this prefix is ever detached into the
	// prefix tree — the alignment that makes adopted KV bit-identical to
	// recomputation.
	history  map[int][]int
	noDetach map[int]bool // sessions opted out of donating KV (no_cache)
	// log is the per-session token log recovery replays (Recover mode
	// only): one segment per uninterrupted run of prefill chunks or decode
	// steps, in residency order. Its invariant is exact agreement with the
	// cluster: a token is appended when — and only when — its KV landed.
	// Prefill segments replay as chunked prefills, decode segments as
	// decode steps, so the per-rank KV placement (and every later logit)
	// reproduces the original bit for bit.
	log map[int][]logSeg
	// needRecovery carries the first unhandled infrastructure failure; the
	// step loop runs an epoch rebuild + replay before any other work. Only
	// set when cfg.Recover armed the subsystem.
	needRecovery error
	recStats     RecoveryStats
	watchStop    chan struct{}
	// executing is the prefill head whose chunk the current iteration is
	// running; cancellation must not remove it mid-chunk, but may between
	// iterations.
	executing *request
	closed    bool
	idSeq     uint64

	queueStats map[Class]*QueueStats
	batch      BatchStats
	lastIter   IterReport
	reuse      ReuseStats

	// rec is the cluster's trace recorder (nil = tracing off; every handle
	// below is then a nil no-op). The scheduler records serving-layer latency
	// histograms and per-request spans into it; the ring layers record the
	// per-sweep phase breakdowns into the same store.
	rec    *trace.Recorder
	hTTFT  *trace.Series // cp_request_ttft_seconds
	hITL   *trace.Series // cp_request_itl_seconds
	hStep  *trace.Series // cp_step_seconds
	hWait  map[Class]*trace.Series
	cChunk *trace.Series // cp_prefill_chunks_total

	// cohorts bounds cohort-label cardinality; cohortSeries caches the
	// per-cohort handle set (guarded by s.mu).
	cohorts      *trace.LabelPool
	cohortSeries map[string]*cohortHandles

	// Overload-control state (overload.go): cached brownout verdict, the
	// previous queue-wait snapshot it was computed against, and the
	// deadline/shed/Retry-After counters surfaced in /v1/stats and /metrics.
	overload     OverloadStats
	brownoutPrev trace.SeriesSnap
	brownoutAt   time.Time
	brownoutOn   bool
	cDeadline    *trace.Series // cp_overload_deadline_expired_total
	cShed        *trace.Series // cp_overload_shed_total
	cRetryAfter  *trace.Series // cp_overload_retry_after_total

	// tree is the prefix-reuse radix tree, nil when disabled. All tree
	// operations that touch rank KV caches (lookup-adopt, detach-insert,
	// eviction) run on the step-loop thread under execMu.
	tree *prefixcache.Tree

	execMu   sync.Mutex // serializes executor access (step loop vs. WithCluster)
	loopDone chan struct{}

	// iter is the step loop's scratch, refilled by every iteration so that a
	// warm decode iteration allocates nothing of its own.
	iter iterScratch
}

// iterScratch holds what one iteration assembles: the fused batch and the
// decode pool it leaves behind (spare is the pool's other buffer, swapped
// with it every iteration), the sessions the iteration has claimed, the
// executor's inputs, the decode.batch span's arguments and the report's
// session list. Only the step loop touches it.
type iterScratch struct {
	dbatch, spare []*request
	used          map[int]bool
	ids, toks     []int
	args          []trace.Arg
	sessions      []int
}

// NewScheduler wraps a cluster in a continuous-batching step loop. Unless
// cfg.Manual is set, a background goroutine drives iterations until Close.
func NewScheduler(cluster *transformer.Cluster, cfg SchedulerConfig) *Scheduler {
	s := newScheduler(cluster, cluster.W.Cfg.Model, cluster.Recorder(), wallClock, cfg)
	s.cluster = cluster
	return s
}

// newScheduler builds the engine over the two seams: exec stands for the
// ranks (serving a model of shape mc, tracing into rec) and now for the clock.
func newScheduler(exec executor, mc model.Config, rec *trace.Recorder, now func() time.Time, cfg SchedulerConfig) *Scheduler {
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:       cfg,
		exec:      exec,
		model:     mc,
		now:       now,
		sessions:  make(map[int]bool),
		prefilled: make(map[int]bool),
		history:   make(map[int][]int),
		noDetach:  make(map[int]bool),
		log:       make(map[int][]logSeg),
		watchStop: make(chan struct{}),
		queueStats: map[Class]*QueueStats{
			ClassPrefill: {}, ClassDecode: {},
		},
		lastIter: IterReport{PrefillSession: -1},
		loopDone: make(chan struct{}),
		rec:      rec,
		iter:     iterScratch{used: make(map[int]bool)},
	}
	s.hTTFT = s.rec.Hist("cp_request_ttft_seconds")
	s.hITL = s.rec.Hist("cp_request_itl_seconds")
	s.hStep = s.rec.Hist("cp_step_seconds")
	s.hWait = map[Class]*trace.Series{
		ClassPrefill: s.rec.Hist("cp_queue_wait_seconds", trace.L("class", string(ClassPrefill))),
		ClassDecode:  s.rec.Hist("cp_queue_wait_seconds", trace.L("class", string(ClassDecode))),
	}
	s.cChunk = s.rec.CounterSeries("cp_prefill_chunks_total")
	s.cohorts = trace.NewLabelPool(0, cfg.Cohorts...)
	s.cohortSeries = make(map[string]*cohortHandles)
	if len(cfg.Cohorts) > 0 {
		// Pre-register configured cohorts (plus the overflow label unknown
		// names fold into) so /metrics exposes their series at zero before
		// any traffic — a dashboard must distinguish "no chat requests yet"
		// from "no chat series".
		s.mu.Lock()
		s.cohortHandlesLocked(trace.OverflowLabel)
		for _, name := range cfg.Cohorts {
			s.cohortHandlesLocked(s.cohorts.Canon(name))
		}
		s.mu.Unlock()
	}
	s.cDeadline = s.rec.CounterSeries("cp_overload_deadline_expired_total")
	s.cShed = s.rec.CounterSeries("cp_overload_shed_total")
	s.cRetryAfter = s.rec.CounterSeries("cp_overload_retry_after_total")
	s.recStats.Enabled = cfg.Recover
	s.recStats.MaxRecoveries = cfg.MaxRecoveries
	s.recStats.Epoch = exec.Epoch()
	if cfg.PrefixCacheTokens > 0 {
		// Block size must equal the chunk budget: hits are only bit-exact at
		// canonical chunk boundaries. Config was validated by applyDefaults,
		// so construction cannot fail.
		s.tree, _ = prefixcache.New(prefixcache.Config{
			BlockSize: cfg.TokenBudget,
			Capacity:  cfg.PrefixCacheTokens,
		})
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Recover {
		go s.watchFailures()
	}
	if cfg.Manual {
		close(s.loopDone)
	} else {
		go s.loop()
	}
	return s
}

// span records one coordinator-side span over [start, end).
func (s *Scheduler) span(name, cat string, seq int, start, end time.Time, args ...trace.Arg) {
	s.rec.RecordSpanArgs(trace.Span{
		Name: name, Cat: cat, Rank: trace.CoordinatorRank, Seq: seq,
		Start: start.UnixNano(), Dur: end.Sub(start).Nanoseconds(),
	}, args...)
}

// cohortHandles is one cohort's resolved metric set.
type cohortHandles struct {
	ttft *trace.Series // cp_cohort_ttft_seconds{cohort=}
	itl  *trace.Series // cp_cohort_itl_seconds{cohort=}
	e2e  *trace.Series // cp_cohort_e2e_seconds{cohort=}
	req  *trace.Series // cp_cohort_requests_total{cohort=}
	// batchArg is the decode.batch span argument that counts the cohort's
	// members ("cohort.chat").
	batchArg string
}

// noCohort is the untagged request's handle set: nil series, which observe
// nothing.
var noCohort cohortHandles

// cohortHandlesLocked resolves (creating if absent) a canonical cohort's
// metric handles; caller holds s.mu and must pass a pool-canonical name or
// "" for an untagged request.
func (s *Scheduler) cohortHandlesLocked(name string) *cohortHandles {
	if name == "" {
		return &noCohort
	}
	if h, ok := s.cohortSeries[name]; ok {
		return h
	}
	l := trace.L("cohort", name)
	h := &cohortHandles{
		ttft: s.rec.Hist("cp_cohort_ttft_seconds", l),
		itl:  s.rec.Hist("cp_cohort_itl_seconds", l),
		e2e:  s.rec.Hist("cp_cohort_e2e_seconds", l),
		req:  s.rec.CounterSeries("cp_cohort_requests_total", l),

		batchArg: "cohort." + name,
	}
	s.cohortSeries[name] = h
	return h
}

func (s *Scheduler) hasWorkLocked() bool {
	return len(s.admit) > 0 || len(s.prefills) > 0 || len(s.decodes) > 0 ||
		len(s.pendingDrops) > 0 || s.needRecovery != nil
}

func (s *Scheduler) loop() {
	defer close(s.loopDone)
	for {
		s.mu.Lock()
		for !s.closed && !s.hasWorkLocked() {
			s.cond.Wait()
		}
		if !s.hasWorkLocked() { // closed and drained
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		if _, ok := s.step(); !ok {
			// Work exists but cannot run (all of it blocked on admission).
			// A Release will signal; avoid a hot spin by waiting for it.
			s.mu.Lock()
			if !s.closed && s.onlyAdmitBlockedLocked() {
				s.cond.Wait()
			}
			s.mu.Unlock()
		}
	}
}

func (s *Scheduler) onlyAdmitBlockedLocked() bool {
	return len(s.admit) > 0 && len(s.prefills) == 0 && len(s.decodes) == 0
}
