package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/prefixcache"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// QueueStats aggregates per-class scheduling metrics. For prefill, one
// execution is one chunk; for decode, one execution is one fused step of one
// session. Waits measure runnable-to-execution delay per execution; Executed
// and TotalWait are the observation count and sum of the class's
// cp_queue_wait_seconds.
type QueueStats struct {
	Executed  int64
	TotalWait time.Duration
	MaxWait   time.Duration
}

// BatchStats aggregates iteration-level batching metrics. Iterations and
// TotalIterMs are cp_step_seconds' count and sum; the other counts are
// cp_prefill_chunks_total and cp_batch_total{field}.
type BatchStats struct {
	Iterations      int64   `json:"iterations"`       // step-loop iterations that executed work
	PrefillChunks   int64   `json:"prefill_chunks"`   // live chunks whose ring pass succeeded
	PrefillTokens   int64   `json:"prefill_tokens"`   // prompt tokens in the live chunks PrefillChunks counts
	DecodeTokens    int64   `json:"decode_tokens"`    // decode steps executed (one token each)
	MixedIterations int64   `json:"mixed_iterations"` // iterations with both a chunk and >=1 decode
	MaxOccupancy    int     `json:"max_occupancy"`    // max sessions served by one iteration
	OccupancySum    int64   `json:"occupancy_sum"`    // for MeanOccupancy
	MaxDecodeBatch  int     `json:"max_decode_batch"` // largest fused DecodeNext
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
	DecodeSessions []int // sessions fused into the DecodeNext ring pass
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

// counter names one of the scheduler's counts, each a series of its
// recorder (Scheduler.counts).
type counter uint8

const (
	cChunk counter = iota
	cPrefillTokens
	cDecodeTokens
	cMixed
	cOccupancy
	cLookups
	cAdopt
	cCached
	cDetach
	cDetachedTokens
	cPassKV
	cPassQ
	cCapacity
	cReplay
	cRecovered
	cLost
	cReplayed
	cReplayCached
	cDeadline
	cShed
	cRetryAfter
	nCounters
)

// counterSeries lists every counter's series, its family and field label,
// with the /v1/stats field it is read into. A family of several counters is
// labelled field, with the /v1/stats JSON field name as its value.
var counterSeries = [nCounters]struct {
	name   string
	labels []trace.Label
	at     func(*statsResponse) *int64
}{
	cChunk:          {"cp_prefill_chunks_total", nil, func(st *statsResponse) *int64 { return &st.Batch.PrefillChunks }},
	cPrefillTokens:  {"cp_batch_total", fieldLabel("prefill_tokens"), func(st *statsResponse) *int64 { return &st.Batch.PrefillTokens }},
	cDecodeTokens:   {"cp_batch_total", fieldLabel("decode_tokens"), func(st *statsResponse) *int64 { return &st.Batch.DecodeTokens }},
	cMixed:          {"cp_batch_total", fieldLabel("mixed_iterations"), func(st *statsResponse) *int64 { return &st.Batch.MixedIterations }},
	cOccupancy:      {"cp_batch_total", fieldLabel("occupancy_sum"), func(st *statsResponse) *int64 { return &st.Batch.OccupancySum }},
	cLookups:        {"cp_reuse_total", fieldLabel("lookups"), func(st *statsResponse) *int64 { return &st.Reuse.Lookups }},
	cAdopt:          {"cp_prefix_adopt_total", nil, func(st *statsResponse) *int64 { return &st.Reuse.Hits }},
	cCached:         {"cp_reuse_total", fieldLabel("cached_tokens"), func(st *statsResponse) *int64 { return &st.Reuse.CachedTokens }},
	cDetach:         {"cp_prefix_detach_total", nil, func(st *statsResponse) *int64 { return &st.Reuse.Detached }},
	cDetachedTokens: {"cp_reuse_total", fieldLabel("detached_tokens"), func(st *statsResponse) *int64 { return &st.Reuse.DetachedTokens }},
	cPassKV:         {"cp_reuse_total", fieldLabel("pass_kv_chunks"), func(st *statsResponse) *int64 { return &st.Reuse.PassKVChunks }},
	cPassQ:          {"cp_reuse_total", fieldLabel("pass_q_chunks"), func(st *statsResponse) *int64 { return &st.Reuse.PassQChunks }},
	cCapacity:       {"cp_reuse_total", fieldLabel("capacity_quarantines"), func(st *statsResponse) *int64 { return &st.Reuse.CapacityQuarantines }},
	cReplay:         {"cp_recovery_replays_total", nil, func(st *statsResponse) *int64 { return &st.Recovery.Rebuilds }},
	cRecovered:      {"cp_recovery_total", fieldLabel("recovered_sessions"), func(st *statsResponse) *int64 { return &st.Recovery.RecoveredSessions }},
	cLost:           {"cp_recovery_total", fieldLabel("lost_sessions"), func(st *statsResponse) *int64 { return &st.Recovery.LostSessions }},
	cReplayed:       {"cp_recovery_total", fieldLabel("replayed_tokens"), func(st *statsResponse) *int64 { return &st.Recovery.ReplayedTokens }},
	cReplayCached:   {"cp_recovery_total", fieldLabel("replay_cached_tokens"), func(st *statsResponse) *int64 { return &st.Recovery.ReplayCachedTokens }},
	cDeadline:       {"cp_overload_deadline_expired_total", nil, func(st *statsResponse) *int64 { return &st.Overload.DeadlineExpired }},
	cShed:           {"cp_overload_shed_total", nil, func(st *statsResponse) *int64 { return &st.Overload.BrownoutShed }},
	cRetryAfter:     {"cp_overload_retry_after_total", nil, func(st *statsResponse) *int64 { return &st.Overload.RetryAfterIssued }},
}

// fieldLabel labels a counter with its /v1/stats field name.
func fieldLabel(name string) []trace.Label { return []trace.Label{trace.L("field", name)} }

// add counts n more of c.
func (s *Scheduler) add(c counter, n int) { s.counts[c].Inc(float64(n)) }

// count reads a series of the scheduler's recorder.
func count(c *trace.Series) int64 { return int64(c.Snap().Value) }

// snapshot is the one snapshot of the scheduler's /v1/stats blocks: batch,
// queues, latency, reuse, recovery and overload. Every count is read back
// from the recorder: the counters, cp_step_seconds' and
// cp_queue_wait_seconds' counts and sums, and the chunks' prompt tokens as
// reuse.computed_tokens. Only the levels and recovery's control state are
// the scheduler's own fields.
func (s *Scheduler) snapshot() statsResponse {
	var st statsResponse
	for c, cs := range counterSeries {
		*cs.at(&st) = count(s.counts[c])
	}
	step := s.hStep.Snap()
	st.Batch.Iterations, st.Batch.TotalIterMs = int64(step.Count), step.Sum*1e3
	st.Reuse.ComputedTokens = st.Batch.PrefillTokens
	st.Recovery.Epoch = uint64(count(s.gEpoch))
	s.mu.Lock()
	defer s.mu.Unlock()
	st.QueueStats = make(map[Class]QueueStats, len(s.hWait))
	for c, h := range s.hWait {
		wait := h.Snap()
		st.QueueStats[c] = QueueStats{Executed: int64(wait.Count), TotalWait: time.Duration(wait.Sum * float64(time.Second)), MaxWait: s.maxWait[c]}
	}
	st.Latency = latencyBlock{TTFT: quantilesOf(s.hTTFT), ITL: quantilesOf(s.hITL), Step: quantilesOf(s.hStep)}
	if len(s.cohortSeries) > 0 {
		st.Latency.ByCohort = make(map[string]cohortLatency, len(s.cohortSeries))
	}
	for name, h := range s.cohortSeries {
		st.Latency.ByCohort[name] = cohortLatency{TTFT: quantilesOf(h.ttft), ITL: quantilesOf(h.itl), E2E: quantilesOf(h.e2e)}
	}
	st.Batch.MaxOccupancy, st.Batch.MaxDecodeBatch, st.Batch.LastIterMs = s.maxOccupancy, s.maxDecodeBatch, s.lastIterMs
	st.LastDecodeBatch = s.lastDecodeBatch
	st.Recovery.Enabled, st.Recovery.MaxRecoveries = s.cfg.Recover, s.cfg.MaxRecoveries
	st.Recovery.Attempts, st.Recovery.InProgress, st.Recovery.LastError = s.attempts, s.recovering, s.lastError
	st.Overload.BrownoutSLOSec, st.Overload.BrownoutActive = s.cfg.BrownoutSLO.Seconds(), s.brownoutOn
	return st
}

// Known reports whether the session holds an admission slot or has queued
// work — including a request still parked behind admission backpressure,
// which DELETE must be able to shed.
func (s *Scheduler) Known(session int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sessions[session]
	return ok || s.sessionQueuedLocked(session)
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

// dequeueLocked removes the requests match selects from all three queues
// and returns them, still open; caller holds s.mu. The queues are settled
// before any caller completes a request, because completing one can re-enter
// admitLocked, which appends to s.prefills.
func (s *Scheduler) dequeueLocked(match func(*request) bool) []*request {
	var out []*request
	for _, q := range []*[]*request{&s.admit, &s.prefills, &s.decodes} {
		kept := (*q)[:0]
		for _, r := range *q {
			if match(r) {
				out = append(out, r)
			} else {
				kept = append(kept, r)
			}
		}
		*q = kept
	}
	return out
}

// outcome is how a request ends. exitLocked gives each its error, which
// statusFor maps to an HTTP status (README, "Request outcomes").
type outcome uint8

const (
	outServed   outcome = iota // its work is done: no error, e2e observed
	outClosed                  // Close cut it: truncated success if it streamed tokens, else ErrClosed
	outReleased                // its session was released or lost its KV under it: ErrReleased
	outCanceled                // its context ended before a claim: the context's cause
	outShed                    // brownout shed it from the admission queue: OverloadError
	outFailed                  // the ranks failed it (fault, KV capacity, lost in recovery): ExecError
)

// exitLocked is the one way a request ends: it sets r's error from the
// outcome (cause is a failure's), observes e2e on success, does the
// quarantine and slot bookkeeping the outcome needs, and answers r. A request
// the running iteration claimed is answered once the iteration's stats are
// recorded, so a client that reads the stats on its reply finds the
// iteration in them; any other is answered at once. The caller holds s.mu and
// has already removed r from the queues.
func (s *Scheduler) exitLocked(r *request, o outcome, cause error, claimed bool) {
	evict, free := false, false
	switch o {
	case outServed:
		s.cohortHandlesLocked(r.cohort).e2e.Observe(r.lastStep.Sub(r.start).Seconds())
		// A stream that finished after its client vanished will never see
		// the session's DELETE.
		evict = r.ctx.Err() != nil && r.collect
	case outClosed:
		// Shutdown drains a stream that produced tokens as a successful,
		// truncated response; a request that produced nothing fails.
		if !r.collect || len(r.tokens) == 0 {
			r.err = ErrClosed
		}
	case outReleased:
		r.err = releasedErr(r.session)
		free = true
	case outCanceled:
		r.err = fmt.Errorf("server: request canceled: %w", context.Cause(r.ctx))
		s.noteDeadlineLocked(r.err)
		// Partial prompt KV is unusable, and a generate stream's client will
		// never issue the DELETE.
		evict, free = r.contributedKV(), true
	case outShed:
		r.err = &OverloadError{RetryAfter: s.retryAfterLocked()}
		s.add(cShed, 1)
	case outFailed:
		// A failed command leaves indeterminate KV behind.
		r.err = &ExecError{cause}
		evict = true
	}
	if evict {
		s.quarantineLocked(r.session)
	}
	if evict || free {
		s.freeSlotLocked(r.session)
		s.cond.Broadcast()
	}
	if claimed {
		s.iter.completed = append(s.iter.completed, r)
	} else {
		close(r.done)
	}
}

// sessionState is an admitted session's record, the value of
// Scheduler.sessions: a session holds an admission slot exactly while it has
// one. Release and loss in recovery delete it; a pending drop carries what it
// needs of it, so a same-id successor starts from a fresh record.
type sessionState struct {
	// resident is set once a chunk of the session's KV has landed, and
	// cleared by quarantine: only a resident session's decodes run.
	resident bool
	// noDetach opts the session out of donating KV (no_cache), from the
	// admission of its first such request for as long as it holds the slot.
	noDetach bool
	// history holds the tokens of the session's canonical prefix: the
	// aligned prefix whose per-rank KV placement matches a cold prefill's.
	// It grows only while prefill chunks land exactly on TokenBudget
	// boundaries with full-budget length, and freezes forever at the first
	// tail chunk or decode step. Only this prefix is ever detached into the
	// prefix tree — the alignment that makes adopted KV bit-identical to
	// recomputation — so a session with noDetach set records none.
	history []int
	// log is the token log recovery replays (Recover mode only): one
	// segment per uninterrupted run of prefill chunks or decode steps, in
	// residency order. Its invariant is exact agreement with the cluster: a
	// token is appended when — and only when — its KV landed. Prefill
	// segments replay as chunked prefills, decode segments as decode steps,
	// so the per-rank KV placement (and every later logit) reproduces the
	// original bit for bit.
	log []logSeg
}

// quarantineLocked schedules the eviction of a session's KV and marks it
// un-decodable, keeping its slot and opt-out; caller holds s.mu. Quarantined
// KV is indeterminate (a fault or cancellation mid-flight) and never donates
// to the prefix tree. A session without a record already has its drop
// scheduled by the release or loss that deleted it.
func (s *Scheduler) quarantineLocked(session int) {
	st, ok := s.sessions[session]
	if !ok {
		return
	}
	s.sessions[session] = sessionState{noDetach: st.noDetach}
	s.pendingDrops = append(s.pendingDrops, sessionDrop{session: session})
}

// freeSlotLocked gives a session's admission slot back to the pool when it
// holds no KV and no queued work references it, and admits waiting work;
// caller holds s.mu and should broadcast after.
func (s *Scheduler) freeSlotLocked(session int) {
	if st, ok := s.sessions[session]; ok && !st.resident && !s.sessionQueuedLocked(session) {
		delete(s.sessions, session)
		s.admitLocked()
	}
}

// dropSessionLocked deletes a session's record and ends its queued requests
// with outcome o, scheduling the eviction of its KV, which first donates
// donate to the prefix tree; caller holds s.mu.
func (s *Scheduler) dropSessionLocked(session int, donate []int, o outcome, cause error) {
	delete(s.sessions, session)
	for _, r := range s.dequeueLocked(func(r *request) bool { return r.session == session }) {
		s.exitLocked(r, o, cause, false)
	}
	s.pendingDrops = append(s.pendingDrops, sessionDrop{session: session, donate: donate})
	s.admitLocked()
	s.cond.Broadcast()
}

// Release frees a session's admission slot, fails its queued requests (so
// a fused batch never sees a dead sequence), schedules its KV for eviction
// on the step loop, and admits waiting work.
func (s *Scheduler) Release(session int) {
	s.mu.Lock()
	// A clean release detaches the session's canonical prefix into the
	// prefix tree before dropping, so reconnects and siblings sharing the
	// prompt hit warm KV — unless the session opted out.
	var donate []int
	if st := s.sessions[session]; !st.noDetach {
		donate = st.history
	}
	s.dropSessionLocked(session, donate, outReleased, nil)
	s.mu.Unlock()
	if s.cfg.Manual {
		// No background loop will run the drop; apply it here. Manual mode
		// has a single driving thread, so this cannot race a Step.
		s.applyDrops()
	}
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
func (s *Scheduler) Stats() map[Class]QueueStats { return s.snapshot().QueueStats }

// BatchStats snapshots iteration-level batching metrics.
func (s *Scheduler) BatchStats() BatchStats { return s.snapshot().Batch }

// Reuse snapshots prefix-reuse and variant-selection telemetry.
func (s *Scheduler) Reuse() ReuseStats { return s.snapshot().Reuse }

// RecoveryStats snapshots the fault-recovery telemetry.
func (s *Scheduler) RecoveryStats() RecoveryStats { return s.snapshot().Recovery }

// PrefixStats snapshots the prefix tree's telemetry; ok is false when prefix
// reuse is disabled.
func (s *Scheduler) PrefixStats() (prefixcache.Stats, bool) {
	if s.tree == nil {
		return prefixcache.Stats{}, false
	}
	return s.tree.Stats(), true
}

// Cohorts snapshots the registered cohort names, sorted.
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
	for _, r := range s.dequeueLocked(func(*request) bool { return true }) {
		s.exitLocked(r, outClosed, nil, false)
	}
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
