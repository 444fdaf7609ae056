package server

import (
	"sort"
	"time"

	"repro/internal/prefixcache"
	"repro/internal/transformer"
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

// purgeSessionLocked fails every queued request of a session with the
// given error and removes them from all three queues; caller holds s.mu.
func (s *Scheduler) purgeSessionLocked(session int, err error) {
	for _, r := range s.dequeueLocked(func(r *request) bool { return r.session == session }) {
		r.err = err
		close(r.done)
	}
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
