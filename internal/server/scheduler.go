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
// into a single DecodeBatch ring sweep. Admission control caps concurrently
// resident sessions so KV memory and queueing stay bounded, and per-class
// queue statistics plus per-iteration batch occupancy make the
// prefill/decode trade-off observable.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/perf"
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

// Policy selects how an iteration orders its prefill chunk against its
// decode batch.
type Policy int

const (
	// FIFO runs whichever side of the mixed batch contains the oldest
	// waiting request first.
	FIFO Policy = iota
	// PrefillFirst always runs the prefill chunk before the decode batch,
	// minimizing TTFT at the cost of decode tail latency — the CP-friendly
	// schedule.
	PrefillFirst
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case PrefillFirst:
		return "prefill-first"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Class labels a request for scheduling and accounting.
type Class string

const (
	ClassPrefill Class = "prefill"
	ClassDecode  Class = "decode"
)

// QueueStats aggregates per-class scheduling metrics. For prefill, one
// execution is one chunk; for decode, one execution is one fused step of one
// session. Waits measure runnable-to-execution delay per execution.
type QueueStats struct {
	Executed  int64
	TotalWait time.Duration
	MaxWait   time.Duration
}

// BatchStats aggregates iteration-level batching metrics.
type BatchStats struct {
	Iterations      int64   `json:"iterations"`       // step-loop iterations that executed work
	PrefillChunks   int64   `json:"prefill_chunks"`   // prefill chunks executed
	PrefillTokens   int64   `json:"prefill_tokens"`   // prompt tokens prefilled
	DecodeTokens    int64   `json:"decode_tokens"`    // decode steps executed (one token each)
	MixedIterations int64   `json:"mixed_iterations"` // iterations with both a chunk and >=1 decode
	MaxOccupancy    int     `json:"max_occupancy"`    // max sessions served by one iteration
	OccupancySum    int64   `json:"occupancy_sum"`    // for MeanOccupancy
	MaxDecodeBatch  int     `json:"max_decode_batch"` // largest fused DecodeBatch
	LastIterMs      float64 `json:"last_iter_ms"`     // duration of the most recent iteration
	TotalIterMs     float64 `json:"total_iter_ms"`    // for MeanIterMs
}

// MeanOccupancy returns the average sessions served per iteration.
func (b BatchStats) MeanOccupancy() float64 {
	if b.Iterations == 0 {
		return 0
	}
	return float64(b.OccupancySum) / float64(b.Iterations)
}

// MeanIterMs returns the average iteration latency in milliseconds.
func (b BatchStats) MeanIterMs() float64 {
	if b.Iterations == 0 {
		return 0
	}
	return b.TotalIterMs / float64(b.Iterations)
}

// IterReport describes what one scheduler iteration executed.
type IterReport struct {
	PrefillSession int   // session whose chunk ran, -1 if none
	PrefillTokens  int   // chunk size in tokens
	PrefillDone    bool  // the chunk completed its request's prompt
	DecodeSessions []int // sessions fused into the DecodeBatch ring pass
	DurMs          float64
}

// Occupancy returns the number of sessions the iteration served.
func (r IterReport) Occupancy() int {
	n := len(r.DecodeSessions)
	if r.PrefillSession >= 0 {
		n++
	}
	return n
}

// DefaultPrefixCacheTokens is the prefix tree's token budget when the config
// leaves it zero.
const DefaultPrefixCacheTokens = 1 << 16

// SchedulerConfig sizes the continuous-batching step loop.
type SchedulerConfig struct {
	Policy Policy
	// Variant selects the prefill ring algorithm; decode rides pass-Q.
	// perf.Auto selects per chunk from the measured KV-cache miss rate
	// (Equation 1): pass-KV at or above the 2·NKV/NH threshold, pass-Q
	// below it — so prefix-cache hits steer warm prefills onto pass-Q.
	Variant     perf.Variant
	TokenBudget int // max prompt tokens prefilled per iteration (default 32)
	MaxBatch    int // max sessions fused into one DecodeBatch (default 64)
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
	// with Step. Tests use this to pin down exactly what one iteration
	// batches.
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

// ReuseStats aggregates prefix-reuse and variant-selection telemetry. Token
// counts cover prompt prefill only: cached tokens were served from the
// prefix tree, computed tokens went through a ring pass.
type ReuseStats struct {
	Lookups        int64 `json:"lookups"`         // first-chunk prefix-tree consultations
	Hits           int64 `json:"hits"`            // lookups that adopted a cached prefix
	CachedTokens   int64 `json:"cached_tokens"`   // prompt tokens adopted from the tree
	ComputedTokens int64 `json:"computed_tokens"` // prompt tokens prefilled on the ring
	Detached       int64 `json:"detached"`        // released sessions that donated KV
	DetachedTokens int64 `json:"detached_tokens"` // tokens those donations added
	PassKVChunks   int64 `json:"pass_kv_chunks"`  // chunks run as ring pass-KV
	PassQChunks    int64 `json:"pass_q_chunks"`   // chunks run as ring pass-Q
	// CapacityQuarantines counts sessions shed because their KV append
	// would not fit a rank's cache even after evicting prefix-tree LRU.
	CapacityQuarantines int64 `json:"capacity_quarantines"`
}

// HitRate returns cached prompt tokens over all prompt tokens.
func (r ReuseStats) HitRate() float64 {
	total := r.CachedTokens + r.ComputedTokens
	if total == 0 {
		return 0
	}
	return float64(r.CachedTokens) / float64(total)
}

// request is one client call moving through the scheduler: an optional
// prefill phase (prompt consumed in token-budget chunks) followed by zero or
// more decode steps that join the per-iteration fused batch.
type request struct {
	id      uint64
	session int

	prompt   []int // tokens to prefill; nil for decode-only requests
	consumed int   // chunk progress
	// adopted is the prefix-tree hit this request's session was seeded
	// with, held until the first miss-suffix chunk succeeds so the hit
	// accounting lands exactly once — even when a chunk failure and
	// recovery make runPrefillChunk re-enter with consumed > 0.
	adopted int

	pending int   // decode steps remaining
	token   int   // token feeding the next decode step
	collect bool  // generate-style: accumulate tokens and per-step latency
	tokens  []int // generated tokens (collect)

	start    time.Time // arrival
	queuedAt time.Time // when the current phase last became runnable
	lastStep time.Time // previous step completion, for TTIT
	ttftMs   float64
	ttitMs   []float64

	// noCache opts this request out of prefix reuse: no tree lookup for its
	// prompt, and its session never donates KV on release.
	noCache bool

	// cohort is the request's canonical workload-cohort label ("" when the
	// client sent none): per-cohort latency histograms and span args key off
	// it. Canonicalized through the label pool at submit, so an unknown
	// cohort lands on "other" instead of minting a series.
	cohort string

	next int // next-token result for prefill-/decode-only requests
	err  error
	done chan struct{}
	// canceled is set (under the scheduler mutex) when the client's
	// context fires while the iteration has already claimed this request;
	// the step loop aborts it at the next chunk/step boundary.
	canceled    bool
	cancelCause error
}

// Scheduler is the continuous-batching engine. All cluster execution happens
// on the step loop (or the Step caller in manual mode), so the cluster needs
// no internal locking; WithCluster serializes outside reads against it.
type Scheduler struct {
	cfg     SchedulerConfig
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
	// canonical tracks, per session, the aligned token prefix whose per-rank
	// KV placement matches a cold prefill's: it grows only while prefill
	// chunks land exactly on TokenBudget boundaries with full-budget length,
	// and freezes forever at the first tail chunk or decode step. Only this
	// prefix is ever detached into the prefix tree — the alignment that
	// makes adopted KV bit-identical to recomputation.
	canonical map[int]int
	history   map[int][]int // the canonical prefix's tokens, len == canonical
	noDetach  map[int]bool  // sessions opted out of donating KV (no_cache)
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

	execMu   sync.Mutex // serializes cluster access (step loop vs. WithCluster)
	loopDone chan struct{}
}

// sessionDrop is a scheduled KV eviction; detach donates the session's
// canonical prefix to the tree first (false after faults — indeterminate KV
// must never seed other sessions).
type sessionDrop struct {
	session int
	detach  bool
}

// NewScheduler wraps a cluster in a continuous-batching step loop. Unless
// cfg.Manual is set, a background goroutine drives iterations until Close.
func NewScheduler(cluster *transformer.Cluster, cfg SchedulerConfig) *Scheduler {
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:       cfg,
		cluster:   cluster,
		sessions:  make(map[int]bool),
		prefilled: make(map[int]bool),
		canonical: make(map[int]int),
		history:   make(map[int][]int),
		noDetach:  make(map[int]bool),
		log:       make(map[int][]logSeg),
		watchStop: make(chan struct{}),
		queueStats: map[Class]*QueueStats{
			ClassPrefill: {}, ClassDecode: {},
		},
		lastIter: IterReport{PrefillSession: -1},
		loopDone: make(chan struct{}),
	}
	s.rec = cluster.Recorder()
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
	s.recStats.Epoch = cluster.Epoch()
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

// GenerateResult is a completed generate request.
type GenerateResult struct {
	Tokens []int
	TTFTMs float64
	TTITMs []float64
}

// RequestOptions tunes one request's scheduling.
type RequestOptions struct {
	// NoPrefixCache opts the request out of prefix reuse: its prompt is
	// never served from the tree and its session never donates KV on
	// release — the per-request opt-out for prompts that must not be
	// shared across sessions.
	NoPrefixCache bool
	// Cohort tags the request with its workload class for per-cohort
	// latency attribution. "" leaves the request untagged; an unregistered
	// name past the label-pool cap is recorded as "other".
	Cohort string
}

// cohortHandles is one cohort's resolved metric set.
type cohortHandles struct {
	ttft *trace.Series // cp_cohort_ttft_seconds{cohort=}
	itl  *trace.Series // cp_cohort_itl_seconds{cohort=}
	e2e  *trace.Series // cp_cohort_e2e_seconds{cohort=}
	req  *trace.Series // cp_cohort_requests_total{cohort=}
}

// cohortHandlesLocked resolves (creating if absent) a canonical cohort's
// metric handles; caller holds s.mu and must pass a pool-canonical name.
func (s *Scheduler) cohortHandlesLocked(name string) *cohortHandles {
	if h, ok := s.cohortSeries[name]; ok {
		return h
	}
	l := trace.L("cohort", name)
	h := &cohortHandles{
		ttft: s.rec.Hist("cp_cohort_ttft_seconds", l),
		itl:  s.rec.Hist("cp_cohort_itl_seconds", l),
		e2e:  s.rec.Hist("cp_cohort_e2e_seconds", l),
		req:  s.rec.CounterSeries("cp_cohort_requests_total", l),
	}
	s.cohortSeries[name] = h
	return h
}

// Cohorts snapshots the registered cohort names (sorted), for the
// /v1/stats by-cohort latency block.
func (s *Scheduler) Cohorts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.cohortSeries))
	for name := range s.cohortSeries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Generate admits a prompt, prefills it chunk by chunk, then keeps the
// session in the fused decode batch until maxTokens greedy tokens exist.
// Blocks until completion or ctx cancellation (cancellation takes effect
// while the request is queued; claimed work runs to its next boundary).
func (s *Scheduler) Generate(ctx context.Context, session int, prompt []int, maxTokens int) (*GenerateResult, error) {
	return s.GenerateWith(ctx, session, prompt, maxTokens, RequestOptions{})
}

// GenerateWith is Generate with per-request options.
func (s *Scheduler) GenerateWith(ctx context.Context, session int, prompt []int, maxTokens int, opts RequestOptions) (*GenerateResult, error) {
	if len(prompt) == 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("server: generate needs a prompt and positive max_tokens")
	}
	if maxTokens > s.cfg.MaxTokens {
		// One stream must not pin a decode lane (and grow per-rank KV)
		// effectively forever.
		return nil, fmt.Errorf("server: max_tokens %d exceeds cap %d", maxTokens, s.cfg.MaxTokens)
	}
	r := &request{
		session: session,
		prompt:  prompt,
		pending: maxTokens - 1,
		collect: true,
		noCache: opts.NoPrefixCache,
		done:    make(chan struct{}),
	}
	if opts.Cohort != "" {
		r.cohort = s.cohorts.Canon(opts.Cohort)
	}
	if err := s.submit(ctx, r); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return &GenerateResult{Tokens: r.tokens, TTFTMs: r.ttftMs, TTITMs: r.ttitMs}, nil
}

// Prefill admits the tokens as chunked prefill work for the session and
// returns the greedy next token once the whole prompt is resident.
func (s *Scheduler) Prefill(ctx context.Context, session int, tokens []int) (int, error) {
	return s.PrefillWith(ctx, session, tokens, RequestOptions{})
}

// PrefillWith is Prefill with per-request options.
func (s *Scheduler) PrefillWith(ctx context.Context, session int, tokens []int, opts RequestOptions) (int, error) {
	if len(tokens) == 0 {
		return 0, fmt.Errorf("server: prefill needs tokens")
	}
	r := &request{session: session, prompt: tokens, noCache: opts.NoPrefixCache, done: make(chan struct{})}
	if opts.Cohort != "" {
		r.cohort = s.cohorts.Canon(opts.Cohort)
	}
	if err := s.submit(ctx, r); err != nil {
		return 0, err
	}
	return r.next, r.err
}

// Decode joins the next iteration's fused decode batch with one token for an
// already-prefilled session and returns the greedy next token.
func (s *Scheduler) Decode(ctx context.Context, session, token int) (int, error) {
	r := &request{session: session, pending: 1, token: token, done: make(chan struct{})}
	if err := s.submit(ctx, r); err != nil {
		return 0, err
	}
	return r.next, r.err
}

// submit enqueues the request and blocks until it completes, fails, or —
// while still queued — its context is canceled. A disconnected client must
// not leak a goroutine parked in the admission queue forever.
func (s *Scheduler) submit(ctx context.Context, r *request) error {
	// Validate before the request can occupy — or block on — an admission
	// slot: a doomed request must fail fast even under backpressure, not
	// wait for capacity it will never use (nor reach the ring, where a
	// mid-pass failure stalls every peer rank).
	if r.session < 0 {
		return fmt.Errorf("server: negative session id %d", r.session)
	}
	vocab := s.cluster.W.Cfg.Model.VocabSize
	for _, tok := range r.prompt {
		if tok < 0 || tok >= vocab {
			return fmt.Errorf("server: token %d outside vocab %d", tok, vocab)
		}
	}
	if len(r.prompt) == 0 && (r.token < 0 || r.token >= vocab) {
		return fmt.Errorf("server: token %d outside vocab %d", r.token, vocab)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.idSeq++
	r.id = s.idSeq
	if r.noCache {
		s.noDetach[r.session] = true
	}
	now := time.Now()
	r.start, r.queuedAt, r.lastStep = now, now, now
	if len(r.prompt) > 0 {
		if s.sessions[r.session] {
			// Follow-up turn of a resident session: no new admission slot.
			s.prefills = append(s.prefills, r)
		} else {
			if s.brownoutLocked(now) {
				// Brownout: new sessions are the lowest-priority work — shed
				// this one (and any queued admission already past the SLO)
				// rather than deepen a backlog we cannot drain in time.
				s.shedAdmitQueueLocked(now)
				s.overload.BrownoutShed++
				s.cShed.Inc(1)
				ra := s.retryAfterLocked()
				s.mu.Unlock()
				return &OverloadError{RetryAfter: ra}
			}
			s.admit = append(s.admit, r)
			s.admitLocked()
		}
	} else {
		if !s.prefilled[r.session] {
			s.mu.Unlock()
			return fmt.Errorf("server: session %d: %w", r.session, ErrUnknownSession)
		}
		s.decodes = append(s.decodes, r)
	}
	cls := ClassDecode
	if len(r.prompt) > 0 {
		cls = ClassPrefill
	}
	s.rec.CounterSeries("cp_requests_total", trace.L("class", string(cls))).Inc(1)
	if r.cohort != "" {
		s.cohortHandlesLocked(r.cohort).req.Inc(1)
	}
	s.cond.Signal()
	s.mu.Unlock()
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		if s.cancelQueued(r, ctx.Err()) {
			return nil // r.err carries the cancellation
		}
		// Claimed by an iteration (or completing); the canceled mark makes
		// the step loop abort it at the next chunk/step boundary.
		<-r.done
		return nil
	}
}

// cancelQueued removes a still-queued request, failing it with the given
// cause. The prefill head is only protected while the step loop is
// actually running its chunk (it identifies the head by queue position);
// between iterations a multi-chunk prompt cancels cleanly at the boundary,
// with any partial KV covered by the scheduled drop.
func (s *Scheduler) cancelQueued(r *request, cause error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	remove := func(q []*request, protectExecuting bool) ([]*request, bool) {
		for i, x := range q {
			if x == r {
				if protectExecuting && i == 0 && s.executing == r {
					return q, false
				}
				return append(q[:i], q[i+1:]...), true
			}
		}
		return q, false
	}
	var ok bool
	inPrefills, inDecodes := false, false
	if s.admit, ok = remove(s.admit, false); !ok {
		if s.prefills, ok = remove(s.prefills, true); !ok {
			s.decodes, ok = remove(s.decodes, false)
			inDecodes = ok
		} else {
			inPrefills = true
		}
	}
	if ok {
		r.cancelCause = cause
		// Evict only what THIS request contributed: partial prompt KV is
		// unusable, and a decode-phase generate stream's session will
		// never see its DELETE. A request canceled in the admission queue
		// (or before its first chunk) contributed nothing — its session id
		// may be concurrently in use by a sibling request's live KV.
		s.abortCanceledLocked(r, (inPrefills && r.consumed > 0) || (inDecodes && r.collect))
	} else {
		// The current iteration holds this request (executing prefill head
		// or popped into the decode batch); flag it for a boundary abort.
		r.canceled = true
		r.cancelCause = cause
	}
	return ok
}

// abortCanceledLocked completes a claimed-then-canceled request at a
// boundary; caller holds s.mu. With evict set (partial prompt KV, or a
// generate stream whose client will never issue the DELETE), the session
// is quarantined exactly like a failed chunk. A session left with no KV
// and no queued work — including one that never prefilled at all — gives
// its admission slot back to the pool. (An executing prefill head is still
// in the queue, so sessionQueuedLocked protects in-flight same-session
// work.)
func (s *Scheduler) abortCanceledLocked(r *request, evict bool) {
	r.err = fmt.Errorf("server: request canceled: %w", r.cancelCause)
	close(r.done)
	s.noteDeadlineLocked(r.cancelCause)
	if evict {
		s.quarantineLocked(r.session)
	}
	s.maybeFreeSlotLocked(r.session)
	s.cond.Broadcast()
}

// admitLocked moves waiting new sessions into the prefill queue while
// admission slots remain; caller holds s.mu.
func (s *Scheduler) admitLocked() {
	for len(s.admit) > 0 {
		r := s.admit[0]
		if !s.sessions[r.session] && len(s.sessions) >= s.cfg.MaxSessions {
			return // backpressure: the queue waits for a Release
		}
		s.sessions[r.session] = true
		s.admit = s.admit[1:]
		// Queue waits measure runnable-to-execution delay; time parked
		// behind the admission cap is a different (observable) metric.
		r.queuedAt = time.Now()
		s.prefills = append(s.prefills, r)
	}
}

// quarantineLocked evicts a session's KV (scheduling the drop) and marks it
// un-decodable; caller holds s.mu and should broadcast after. Quarantined KV
// is indeterminate (a fault or cancellation mid-flight) and must never
// donate to the prefix tree.
func (s *Scheduler) quarantineLocked(session int) {
	delete(s.prefilled, session)
	s.pendingDrops = append(s.pendingDrops, sessionDrop{session: session})
}

// maybeFreeSlotLocked returns a session's admission slot to the pool when
// it holds no KV and no queued work references it; caller holds s.mu and
// should broadcast after.
func (s *Scheduler) maybeFreeSlotLocked(session int) {
	if !s.prefilled[session] && !s.sessionQueuedLocked(session) {
		delete(s.sessions, session)
		s.admitLocked()
	}
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

// Step executes one scheduler iteration in manual mode: at most one
// token-budget chunk of the oldest waiting prefill plus one fused
// DecodeBatch ring pass over every decode-ready session (capped at
// MaxBatch, at most one step per session). Returns false if no work was
// runnable — or always, as a no-op, when a background loop owns the
// scheduler: a second driver would race the loop and double-execute the
// claimed prefill chunk.
func (s *Scheduler) Step() (IterReport, bool) {
	if !s.cfg.Manual {
		return IterReport{PrefillSession: -1}, false
	}
	return s.step()
}

// step runs one iteration; callers are the background loop or Step.
func (s *Scheduler) step() (IterReport, bool) {
	s.applyDrops() // evictions are loop-ordered: never racing chunk or batch
	// Recovery runs after drops (so released sessions are already out of
	// the replay set) and before any chunk or batch touches the cluster.
	s.maybeRecover()
	s.mu.Lock()
	s.admitLocked()
	var pj *request
	if len(s.prefills) > 0 {
		pj = s.prefills[0]
		// A Release may have queued this session's eviction after this
		// iteration's applyDrops ran (re-admitted same-id session). Its
		// chunk must wait one iteration so the drop lands first — never
		// after fresh KV.
		for _, d := range s.pendingDrops {
			if d.session == pj.session {
				pj = nil
				break
			}
		}
	}
	s.executing = pj
	var dbatch []*request
	var held []*request
	used := map[int]bool{}
	if pj != nil {
		// A session never prefills and decodes in the same iteration: the
		// two cluster calls would disagree about its sequence positions.
		used[pj.session] = true
	}
	var deadSessions []int
	for _, r := range s.decodes {
		switch {
		case !s.prefilled[r.session]:
			// The session was released (or lost its KV) after this request
			// queued; it must not reach the fused batch.
			r.err = releasedErr(r.session)
			close(r.done)
			deadSessions = append(deadSessions, r.session)
		case len(dbatch) < s.cfg.MaxBatch && !used[r.session]:
			used[r.session] = true
			dbatch = append(dbatch, r)
		default:
			held = append(held, r)
		}
	}
	s.decodes = held
	// Failing those requests may have been the last thing keeping their
	// quarantined sessions' admission slots occupied.
	for _, id := range deadSessions {
		s.maybeFreeSlotLocked(id)
	}
	if pj == nil && len(dbatch) == 0 {
		s.mu.Unlock()
		return IterReport{PrefillSession: -1}, false
	}
	now := time.Now()
	if pj != nil {
		s.recordWaitLocked(ClassPrefill, now.Sub(pj.queuedAt), pj.cohort)
	}
	for _, r := range dbatch {
		s.recordWaitLocked(ClassDecode, now.Sub(r.queuedAt), r.cohort)
	}
	prefillLeads := s.cfg.Policy == PrefillFirst ||
		(pj != nil && (len(dbatch) == 0 || pj.id < dbatch[0].id))
	s.mu.Unlock()

	report := IterReport{PrefillSession: -1}
	start := time.Now()
	if pj != nil {
		report.PrefillSession = pj.session
	}
	if prefillLeads {
		report.PrefillDone = s.runPrefillChunk(pj, &report)
		s.runDecodeBatch(dbatch, &report)
	} else {
		s.runDecodeBatch(dbatch, &report)
		report.PrefillDone = s.runPrefillChunk(pj, &report)
	}
	report.DurMs = float64(time.Since(start).Microseconds()) / 1000
	s.hStep.Observe(time.Since(start).Seconds())

	s.mu.Lock()
	b := &s.batch
	b.Iterations++
	b.OccupancySum += int64(report.Occupancy())
	if report.Occupancy() > b.MaxOccupancy {
		b.MaxOccupancy = report.Occupancy()
	}
	if len(report.DecodeSessions) > b.MaxDecodeBatch {
		b.MaxDecodeBatch = len(report.DecodeSessions)
	}
	if pj != nil {
		b.PrefillChunks++
		b.PrefillTokens += int64(report.PrefillTokens)
	}
	b.DecodeTokens += int64(len(report.DecodeSessions))
	if pj != nil && len(report.DecodeSessions) > 0 {
		b.MixedIterations++
	}
	b.LastIterMs = report.DurMs
	b.TotalIterMs += report.DurMs
	s.lastIter = report
	s.mu.Unlock()
	return report, true
}

// runPrefillChunk executes one chunk on the cluster and advances or
// completes its request. The first chunk of a fresh sequence consults the
// prefix tree and seeds the session from the longest cached prefix; every
// chunk is aligned to absolute TokenBudget boundaries and, under perf.Auto,
// selects its ring variant from the chunk's miss rate (Equation 1). Returns
// true when the request's prompt finished.
func (s *Scheduler) runPrefillChunk(pj *request, report *IterReport) bool {
	if pj == nil {
		return false
	}
	s.execMu.Lock()
	lookedUp := false
	if s.tree != nil && pj.consumed == 0 && !pj.noCache && s.cluster.SeqLen(pj.session) == 0 {
		lookedUp = true
		if hit, entry := s.tree.Lookup(pj.prompt); hit > 0 {
			if pre, ok := entry.(*transformer.PrefixKV); ok {
				tAdopt := time.Now()
				if err := s.cluster.AdoptPrefix(pj.session, pre); err == nil {
					s.rec.CounterSeries("cp_prefix_adopt_total").Inc(1)
					if s.rec != nil {
						s.rec.RecordSpan(trace.Span{
							Name: "prefix.adopt", Cat: "cache", Rank: trace.CoordinatorRank, Seq: pj.session,
							Start: tAdopt.UnixNano(), Dur: time.Since(tAdopt).Nanoseconds(),
							Args: map[string]int64{"tokens": int64(hit)},
						})
					}
					pj.adopted = hit
					pj.consumed = hit
					// The adopted KV is resident now, so the token log and
					// the canonical-prefix bookkeeping update now —
					// deferring them to the chunk's success would
					// desynchronize them from the cluster if the chunk
					// fails and recovery replays the session (the retried
					// chunk re-enters with consumed > 0 and never takes
					// this branch again).
					s.mu.Lock()
					s.appendLogLocked(pj.session, false, pj.prompt[:hit])
					s.canonical[pj.session] = hit
					s.history[pj.session] = append([]int(nil), pj.prompt[:hit]...)
					s.mu.Unlock()
				}
			}
		}
	}
	pos := s.cluster.SeqLen(pj.session)
	// Align chunks to absolute multiples of the budget: per-rank KV
	// placement (and the auto variant choice) is then a pure function of
	// position, which is what lets a cached prefix replay a cold prefill
	// bit for bit.
	rem := len(pj.prompt) - pj.consumed
	n := s.cfg.TokenBudget - pos%s.cfg.TokenBudget
	if n > rem {
		n = rem
	}
	chunk := pj.prompt[pj.consumed : pj.consumed+n]
	report.PrefillTokens = len(chunk)
	variant := s.cfg.Variant
	if variant == perf.Auto {
		variant = perf.ChooseVariant(s.cluster.W.Cfg.Model, len(chunk), pos)
	}
	tChunk := time.Now()
	logits, err := s.cluster.Prefill(pj.session, chunk, variant)
	evictReq := len(chunk)
	for err != nil {
		// A rank ran out of KV room before touching any cache. Cold tree
		// branches are worth less than a live request: keep shedding LRU
		// leaves and retrying while the tree can still shrink — an evicted
		// leaf whose pages a live sequence pins frees no physical rows, so
		// a single eviction proves nothing. Doubling the request bounds the
		// retries logarithmically in the tree size.
		var ce *transformer.CapacityError
		if !errors.As(err, &ce) || s.tree == nil || s.tree.EvictTokens(evictReq) == 0 {
			break
		}
		evictReq *= 2
		logits, err = s.cluster.Prefill(pj.session, chunk, variant)
	}
	s.execMu.Unlock()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.executing = nil
	if lookedUp {
		s.reuse.Lookups++
	}
	if len(s.prefills) == 0 || s.prefills[0] != pj {
		// A concurrent Release purged this request (and completed it with
		// a released error) while its chunk was executing. The chunk's KV
		// is covered by the Release's pending drop, which the next Step
		// applies before any re-admitted same-id session can prefill.
		return false
	}
	if pj.canceled {
		// The client vanished while this chunk ran; stop burning ring
		// passes on its prompt. The chunk's KV is quarantined.
		s.prefills = s.prefills[1:]
		s.abortCanceledLocked(pj, true)
		return false
	}
	if err != nil {
		var ce *transformer.CapacityError
		if !errors.As(err, &ce) && s.recoveryArmedLocked() {
			// Infrastructure failure with recovery armed: the request stays
			// at the queue head and its session keeps its state — the next
			// iteration rebuilds the cluster, replays the token log (which
			// covers everything up to pj.consumed), and retries this chunk.
			s.scheduleRecoveryLocked(fmt.Errorf("prefill chunk for session %d: %w", pj.session, err))
			return false
		}
		if errors.As(err, &ce) {
			s.reuse.CapacityQuarantines++
		}
		s.prefills = s.prefills[1:]
		pj.err = &ExecError{fmt.Errorf("prefill: %w", err)}
		close(pj.done)
		// A failed chunk leaves indeterminate partial KV: quarantine the
		// session so nothing decodes against it, and — if no other queued
		// work references it — free its admission slot rather than holding
		// it hostage.
		s.quarantineLocked(pj.session)
		s.maybeFreeSlotLocked(pj.session)
		s.cond.Broadcast()
		return false
	}
	// Hit accounting lands only once the first miss-suffix chunk succeeds:
	// an adoption whose request then fails (and is quarantined) served the
	// client nothing, and must not inflate the reported hit rate. The
	// pending count rides the request, not the stack, so a chunk retried
	// after recovery still settles it.
	if pj.adopted > 0 {
		s.reuse.Hits++
		s.reuse.CachedTokens += int64(pj.adopted)
		pj.adopted = 0
	}
	s.reuse.ComputedTokens += int64(len(chunk))
	s.appendLogLocked(pj.session, false, chunk)
	s.cChunk.Inc(1)
	if s.rec != nil {
		args := map[string]int64{"tokens": int64(len(chunk)), "pos": int64(pos)}
		if pj.cohort != "" {
			args["cohort"] = s.cohorts.ID(pj.cohort)
		}
		s.rec.RecordSpan(trace.Span{
			Name: "prefill.chunk", Cat: "prefill", Rank: trace.CoordinatorRank, Seq: pj.session,
			Start: tChunk.UnixNano(), Dur: now.Sub(tChunk).Nanoseconds(),
			Args: args,
		})
	}
	if variant == perf.PassQ {
		s.reuse.PassQChunks++
	} else {
		s.reuse.PassKVChunks++
	}
	// The canonical prefix grows only through full-budget chunks landing
	// exactly on its frontier; the first tail chunk or decode step freezes
	// it for good. Only canonical tokens may ever enter the prefix tree.
	if pos == s.canonical[pj.session] && pos%s.cfg.TokenBudget == 0 && len(chunk) == s.cfg.TokenBudget {
		s.canonical[pj.session] = pos + len(chunk)
		s.history[pj.session] = append(s.history[pj.session], chunk...)
	}
	s.prefilled[pj.session] = true
	pj.consumed += len(chunk)
	if pj.consumed < len(pj.prompt) {
		pj.queuedAt = now // next chunk becomes runnable now
		return false
	}
	s.prefills = s.prefills[1:]
	next := transformer.Argmax(logits[len(logits)-1])
	pj.ttftMs = float64(now.Sub(pj.start).Microseconds()) / 1000
	s.hTTFT.Observe(now.Sub(pj.start).Seconds())
	if pj.cohort != "" {
		s.cohortHandlesLocked(pj.cohort).ttft.Observe(now.Sub(pj.start).Seconds())
	}
	pj.next = next
	pj.lastStep = now
	if pj.collect {
		pj.tokens = append(pj.tokens, next)
	}
	if pj.pending > 0 {
		pj.token = next
		pj.queuedAt = now
		s.decodes = append(s.decodes, pj)
		s.cond.Signal()
		return true
	}
	if pj.cohort != "" {
		s.cohortHandlesLocked(pj.cohort).e2e.Observe(now.Sub(pj.start).Seconds())
	}
	close(pj.done)
	return true
}

// runDecodeBatch advances every request in the batch by one fused ring pass
// and requeues the ones with steps remaining.
func (s *Scheduler) runDecodeBatch(dbatch []*request, report *IterReport) {
	if len(dbatch) == 0 {
		return
	}
	var out [][]float32
	var err error
	evictReq := 0
	tBatch := time.Now()
	for len(dbatch) > 0 {
		ids := make([]int, len(dbatch))
		toks := make([]int, len(dbatch))
		for i, r := range dbatch {
			ids[i] = r.session
			toks[i] = r.token
		}
		s.execMu.Lock()
		out, err = s.cluster.DecodeBatch(ids, toks)
		var ce *transformer.CapacityError
		if err != nil && errors.As(err, &ce) {
			// Capacity pressure surfaces before any ring pass or cache
			// mutation, so it is safe to shed load and retry. First reclaim
			// cold prefix-tree branches — repeatedly, since an evicted leaf
			// whose pages a live sequence pins frees no physical rows, with
			// the request doubling each round so retries stay logarithmic
			// in the tree size; once it cannot shrink, quarantine exactly
			// the offending sessions and rerun the rest of the batch — the
			// survivors were prechecked to fit.
			if evictReq == 0 {
				evictReq = len(ce.Seqs)
			} else {
				evictReq *= 2
			}
			if s.tree != nil && s.tree.EvictTokens(evictReq) > 0 {
				s.execMu.Unlock()
				continue
			}
			s.execMu.Unlock()
			bad := make(map[int]bool, len(ce.Seqs))
			for _, id := range ce.Seqs {
				bad[id] = true
			}
			s.mu.Lock()
			var kept []*request
			for _, r := range dbatch {
				if bad[r.session] {
					r.err = &ExecError{fmt.Errorf("decode: %w", err)}
					close(r.done)
					s.quarantineLocked(r.session)
					s.maybeFreeSlotLocked(r.session)
					s.reuse.CapacityQuarantines++
				} else {
					kept = append(kept, r)
				}
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			dbatch = kept
			continue
		}
		s.execMu.Unlock()
		break
	}
	if len(dbatch) == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.recoveryArmedLocked() {
			// Infrastructure failure with recovery armed: requeue the batch
			// in order at the front of the decode pool instead of faulting
			// it. Each request's pending token is untouched, and the replay
			// restores its session's KV through exactly the last logged
			// token, so the retried step is bit-identical to the one that
			// failed.
			s.decodes = append(append([]*request(nil), dbatch...), s.decodes...)
			s.scheduleRecoveryLocked(fmt.Errorf("decode batch of %d: %w", len(dbatch), err))
			return
		}
		// Dead sessions are filtered out at batch assembly and evictions
		// are loop-ordered, so a failure here is infrastructure (comm
		// fault, mid-ring timeout) that may have left partial per-rank KV.
		// A retry — internal or a client's — could double-append, so fail
		// the batch honestly and quarantine every member: KV evicted,
		// session no longer decodable until re-prefilled.
		for _, r := range dbatch {
			r.err = &ExecError{fmt.Errorf("decode: %w", err)}
			close(r.done)
			s.quarantineLocked(r.session)
		}
		// As with a failed prefill chunk: a quarantined session holds no
		// KV, so unless queued work still references it, its admission
		// slot must go back to the pool rather than wedge new sessions.
		for _, r := range dbatch {
			s.maybeFreeSlotLocked(r.session)
		}
		s.cond.Broadcast()
		return
	}
	if s.rec != nil {
		// A fused batch mixes cohorts, so the span carries one per-cohort
		// member count ("cohort.chat": 3) instead of a single id.
		args := map[string]int64{"batch": int64(len(dbatch))}
		for _, r := range dbatch {
			if r.cohort != "" {
				args["cohort."+r.cohort]++
			}
		}
		s.rec.RecordSpan(trace.Span{
			Name: "decode.batch", Cat: "decode", Rank: trace.CoordinatorRank, Seq: trace.NoSeq,
			Start: tBatch.UnixNano(), Dur: now.Sub(tBatch).Nanoseconds(),
			Args: args,
		})
	}
	for i, r := range dbatch {
		report.DecodeSessions = append(report.DecodeSessions, r.session)
		s.appendLogLocked(r.session, true, []int{r.token})
		next := transformer.Argmax(out[i])
		r.pending--
		if r.collect {
			r.tokens = append(r.tokens, next)
			r.ttitMs = append(r.ttitMs, float64(now.Sub(r.lastStep).Microseconds())/1000)
		}
		if !r.lastStep.IsZero() {
			s.hITL.Observe(now.Sub(r.lastStep).Seconds())
			if r.cohort != "" {
				s.cohortHandlesLocked(r.cohort).itl.Observe(now.Sub(r.lastStep).Seconds())
			}
		}
		r.lastStep = now
		r.next = next
		switch {
		case r.pending > 0 && r.canceled:
			// Client vanished mid-stream. A generate stream's session
			// will never see its DELETE, so evict it; a decode-only
			// client's multi-turn conversation stays resident.
			s.abortCanceledLocked(r, r.collect)
		case r.pending > 0 && s.closed:
			// Shutdown boundary: the stream is drained, not faulted — the
			// client gets the tokens generated so far (ending with this
			// step's) as a successful, truncated response. Shutdown stays
			// bounded by one iteration, not by the stream's remaining
			// (possibly millions of) steps.
			close(r.done)
		case r.pending > 0 && !s.prefilled[r.session]:
			// Released while this step was in flight; don't requeue a
			// decode against soon-to-be-evicted KV.
			r.err = releasedErr(r.session)
			close(r.done)
		case r.pending > 0:
			r.token = next
			r.queuedAt = now
			s.decodes = append(s.decodes, r)
		default:
			if r.cohort != "" {
				s.cohortHandlesLocked(r.cohort).e2e.Observe(now.Sub(r.start).Seconds())
			}
			close(r.done)
			if r.canceled && r.collect {
				// The stream finished, but its client vanished and will
				// never DELETE the session; reclaim it.
				s.quarantineLocked(r.session)
				s.maybeFreeSlotLocked(r.session)
				s.cond.Broadcast()
			}
		}
	}
	if len(s.decodes) > 0 {
		s.cond.Signal()
	}
}

func (s *Scheduler) recordWaitLocked(c Class, wait time.Duration, cohort string) {
	st := s.queueStats[c]
	st.Executed++
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	s.hWait[c].Observe(wait.Seconds())
	if s.rec != nil {
		// Span args are int64-valued, so the cohort rides as its pool id;
		// the id→name registry is exposed in /v1/stats cohort block order.
		var args map[string]int64
		if cohort != "" {
			args = map[string]int64{"cohort": s.cohorts.ID(cohort)}
		}
		s.rec.RecordSpan(trace.Span{
			Name: "queue.wait", Cat: string(c), Rank: trace.CoordinatorRank, Seq: trace.NoSeq,
			Start: time.Now().Add(-wait).UnixNano(), Dur: wait.Nanoseconds(),
			Args: args,
		})
	}
}

// Active reports whether the session has resident KV.
func (s *Scheduler) Active(session int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prefilled[session]
}

// Known reports whether the session holds an admission slot or has queued
// work — including a request still parked behind admission backpressure,
// which DELETE must be able to shed.
func (s *Scheduler) Known(session int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[session] || s.sessionQueuedLocked(session)
}

// Sessions returns the resident session ids' count.
func (s *Scheduler) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// SessionIDs snapshots the admitted session ids.
func (s *Scheduler) SessionIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// sessionQueuedLocked reports whether any queued request references the
// session; caller holds s.mu.
func (s *Scheduler) sessionQueuedLocked(session int) bool {
	for _, q := range [][]*request{s.admit, s.prefills, s.decodes} {
		for _, r := range q {
			if r.session == session {
				return true
			}
		}
	}
	return false
}

// purgeSessionLocked fails every queued request of a session with the
// given error and removes them from all three queues; caller holds s.mu.
func (s *Scheduler) purgeSessionLocked(session int, err error) {
	purge := func(q []*request) []*request {
		kept := q[:0]
		for _, r := range q {
			if r.session == session {
				r.err = err
				close(r.done)
				continue
			}
			kept = append(kept, r)
		}
		return kept
	}
	s.admit = purge(s.admit)
	s.prefills = purge(s.prefills)
	s.decodes = purge(s.decodes)
}

// Release frees a session's admission slot, fails its queued requests (so
// a fused batch never sees a dead sequence), schedules its KV for eviction
// on the step loop, and admits waiting work.
func (s *Scheduler) Release(session int) {
	s.mu.Lock()
	s.purgeSessionLocked(session, releasedErr(session))
	delete(s.sessions, session)
	delete(s.prefilled, session)
	// A clean release detaches the session's canonical prefix into the
	// prefix tree before dropping, so reconnects and siblings sharing the
	// prompt hit warm KV.
	s.pendingDrops = append(s.pendingDrops, sessionDrop{session: session, detach: true})
	s.admitLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.cfg.Manual {
		// No background loop will run the drop; apply it here. Manual mode
		// has a single driving thread, so this cannot race a Step.
		s.applyDrops()
	}
}

// applyDrops evicts every pending session's KV under the execution lock.
// Releases detach the session's canonical prefix into the prefix tree first
// (unless the session opted out or never grew one); the tree's spans keep
// the pages alive while the sequence itself is dropped.
func (s *Scheduler) applyDrops() {
	s.mu.Lock()
	drops := s.pendingDrops
	s.pendingDrops = nil
	s.mu.Unlock()
	if len(drops) == 0 {
		return
	}
	s.execMu.Lock()
	for _, d := range drops {
		s.detachAndDrop(d)
	}
	s.execMu.Unlock()
}

// detachAndDrop runs one scheduled eviction; caller holds execMu.
func (s *Scheduler) detachAndDrop(d sessionDrop) {
	s.mu.Lock()
	canon := s.canonical[d.session]
	hist := s.history[d.session]
	noDetach := s.noDetach[d.session]
	delete(s.canonical, d.session)
	delete(s.history, d.session)
	delete(s.noDetach, d.session)
	delete(s.log, d.session) // evicted sessions are not replayable
	s.mu.Unlock()
	if d.detach && !noDetach && s.tree != nil && canon >= s.cfg.TokenBudget {
		tDetach := time.Now()
		added, err := s.tree.Insert(hist[:canon], func(depth int) (prefixcache.Entry, error) {
			return s.cluster.DetachPrefix(d.session, depth)
		})
		if err == nil && added > 0 {
			s.mu.Lock()
			s.reuse.Detached++
			s.reuse.DetachedTokens += int64(added)
			s.mu.Unlock()
			s.rec.CounterSeries("cp_prefix_detach_total").Inc(1)
			if s.rec != nil {
				s.rec.RecordSpan(trace.Span{
					Name: "prefix.detach", Cat: "cache", Rank: trace.CoordinatorRank, Seq: d.session,
					Start: tDetach.UnixNano(), Dur: time.Since(tDetach).Nanoseconds(),
					Args: map[string]int64{"tokens": int64(added)},
				})
			}
		}
	}
	s.cluster.Drop(d.session)
}

// WithCluster runs fn with exclusive access to the cluster, serialized
// against the step loop. Stats handlers use it for consistent snapshots.
func (s *Scheduler) WithCluster(fn func(c *transformer.Cluster)) {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	fn(s.cluster)
}

// QueueDepths snapshots the scheduler's queues: sessions waiting for
// admission, prefill-phase requests, and decode-ready requests.
func (s *Scheduler) QueueDepths() (admit, prefill, decode int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.admit), len(s.prefills), len(s.decodes)
}

// Stats snapshots per-class queue metrics.
func (s *Scheduler) Stats() map[Class]QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Class]QueueStats, len(s.queueStats))
	for c, st := range s.queueStats {
		out[c] = *st
	}
	return out
}

// BatchStats snapshots iteration-level batching metrics.
func (s *Scheduler) BatchStats() BatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batch
}

// Reuse snapshots prefix-reuse and variant-selection telemetry.
func (s *Scheduler) Reuse() ReuseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reuse
}

// PrefixStats snapshots the prefix tree's telemetry; ok is false when prefix
// reuse is disabled.
func (s *Scheduler) PrefixStats() (prefixcache.Stats, bool) {
	if s.tree == nil {
		return prefixcache.Stats{}, false
	}
	return s.tree.Stats(), true
}

// LastIter returns the most recent iteration's report.
func (s *Scheduler) LastIter() IterReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.lastIter
	out.DecodeSessions = append([]int(nil), s.lastIter.DecodeSessions...)
	return out
}

// Close stops admission, fails requests still waiting in a queue, lets the
// loop finish its in-flight iteration (a generate stream claimed by that
// iteration drains gracefully: its client gets the tokens generated so far
// as a successful truncated response), and waits for the loop to exit.
// Subsequent submissions fail with ErrClosed. Closing twice is safe: the
// second call just waits for the first to finish.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.loopDone
		return
	}
	s.closed = true
	close(s.watchStop)
	// Cut everything queued rather than running it down: a generate stream
	// can have millions of steps left, and shutdown must be bounded by one
	// iteration, not by the longest client request. Streams that already
	// produced tokens drain as successful truncated responses; requests
	// that produced nothing fail with ErrClosed.
	for _, q := range [][]*request{s.admit, s.prefills, s.decodes} {
		for _, r := range q {
			if !r.collect || len(r.tokens) == 0 {
				r.err = ErrClosed
			}
			close(r.done)
		}
	}
	s.admit, s.prefills, s.decodes = nil, nil, nil
	s.needRecovery = nil // nothing left worth rebuilding for
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.loopDone
}

// Closed reports whether Close has begun; the HTTP layer maps post-close
// requests (stats included) to 503 uniformly.
func (s *Scheduler) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
