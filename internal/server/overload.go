package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// This file is the deadline-aware overload-control half of the serving
// edge: per-request deadlines surface as 504s and count as overload, and a
// brownout mode sheds the lowest-priority queued work — new-session
// admissions — with 429 + Retry-After while the recent queue-wait quantile
// sits above a configurable SLO. Brownout protects the sessions already
// resident (their decode lanes and follow-up turns keep running); only
// fresh admissions, which would deepen the backlog, are turned away.

// OverloadError reports deliberate load shedding: the scheduler is in
// brownout and the request was rejected rather than queued. The HTTP layer
// maps it to 429 Too Many Requests with a Retry-After header.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded, retry after %s", e.RetryAfter)
}

// OverloadStats is the /v1/stats "overload" block.
type OverloadStats struct {
	// BrownoutSLOSec mirrors the configured queue-wait SLO (0 = brownout
	// disabled).
	BrownoutSLOSec float64 `json:"brownout_slo_sec"`
	// BrownoutActive is true while admissions are being shed.
	BrownoutActive bool `json:"brownout_active"`
	// DeadlineExpired counts requests aborted because their timeout_ms
	// deadline fired.
	DeadlineExpired int64 `json:"deadline_expired"`
	// BrownoutShed counts requests rejected or shed by brownout.
	BrownoutShed int64 `json:"brownout_shed"`
	// RetryAfterIssued counts 429 responses that carried a Retry-After
	// header.
	RetryAfterIssued int64 `json:"retry_after_issued"`
}

// brownoutRefresh bounds how often the windowed queue-wait quantile is
// recomputed; between refreshes the cached verdict holds. It is also the
// minimum window over which the quantile is measured, so one slow iteration
// cannot flap the brownout state.
const brownoutRefresh = 250 * time.Millisecond

// retryAfterLocked is the backoff hint attached to shed work: the SLO
// itself, floored at one second (the header's resolution).
func (s *Scheduler) retryAfterLocked() time.Duration {
	return max(s.cfg.BrownoutSLO, time.Second)
}

// brownoutLocked evaluates (with caching) whether the scheduler is browned
// out: the p90 queue wait of the observations recorded since the previous
// refresh exceeds the SLO. With tracing disabled — or a window holding no
// executions at all, the signature of a wedged or saturated step loop — it
// falls back to the age of the oldest request still waiting for admission.
// Caller holds s.mu.
func (s *Scheduler) brownoutLocked(now time.Time) bool {
	if s.cfg.BrownoutSLO <= 0 {
		return false
	}
	if now.Sub(s.brownoutAt) < brownoutRefresh {
		return s.brownoutOn
	}
	s.brownoutAt = now
	cur := s.queueWaitSnapLocked()
	p90, ok := trace.DeltaQuantile(cur, s.brownoutPrev, 0.90)
	s.brownoutPrev = cur
	if !ok && len(s.admit) > 0 {
		p90 = now.Sub(s.admit[0].queuedAt).Seconds()
		ok = true
	}
	s.brownoutOn = ok && p90 > s.cfg.BrownoutSLO.Seconds()
	return s.brownoutOn
}

// queueWaitSnapLocked folds both queue-wait histograms (prefill + decode
// classes) into one combined snapshot for the windowed quantile.
func (s *Scheduler) queueWaitSnapLocked() trace.SeriesSnap {
	cur := trace.SeriesSnap{Kind: trace.KindHistogram, Counts: make([]uint64, len(trace.BucketBounds)+1)}
	for _, cls := range []Class{ClassPrefill, ClassDecode} {
		sn := s.hWait[cls].Snap()
		cur.Count += sn.Count
		cur.Sum += sn.Sum
		for i := 0; i < len(sn.Counts) && i < len(cur.Counts); i++ {
			cur.Counts[i] += sn.Counts[i]
		}
	}
	return cur
}

// shedAdmitQueueLocked fails every admission-queue request that has already
// waited past the SLO — the brownout's backlog trim. Requests in the
// admission queue hold no session slot and no KV, so shedding them frees
// nothing and races nothing; their submit goroutines wake with the
// OverloadError. Caller holds s.mu.
func (s *Scheduler) shedAdmitQueueLocked(now time.Time) {
	kept := s.admit[:0]
	for _, r := range s.admit {
		if now.Sub(r.queuedAt) > s.cfg.BrownoutSLO {
			r.err = &OverloadError{RetryAfter: s.retryAfterLocked()}
			close(r.done)
			s.overload.BrownoutShed++
			s.cShed.Inc(1)
			continue
		}
		kept = append(kept, r)
	}
	s.admit = kept
}

// noteDeadlineLocked counts a request aborted by its own deadline; caller
// holds s.mu.
func (s *Scheduler) noteDeadlineLocked(cause error) {
	if errors.Is(cause, context.DeadlineExceeded) {
		s.overload.DeadlineExpired++
		s.cDeadline.Inc(1)
	}
}

// noteRetryAfter counts a Retry-After header going out (the HTTP layer
// calls it when it maps an OverloadError).
func (s *Scheduler) noteRetryAfter() {
	s.mu.Lock()
	s.overload.RetryAfterIssued++
	s.mu.Unlock()
	s.cRetryAfter.Inc(1)
}

// OverloadStats snapshots the deadline/brownout telemetry.
func (s *Scheduler) OverloadStats() OverloadStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.overload
	out.BrownoutSLOSec = s.cfg.BrownoutSLO.Seconds()
	out.BrownoutActive = s.brownoutOn
	return out
}
