package server

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/transformer"
)

// This file is the serving half of the fault-tolerance subsystem. The
// cluster half (transformer.Rebuild) replaces a failed incarnation with a
// fresh one on the next epoch; this half decides when to do that and puts
// the sessions back.
//
// The contract is bit-identity, not best effort: the scheduler keeps a
// token log per live session (see logSeg), and recovery feeds each log back
// through the live chunk path (prefillChunk, donatePrefix) with the results
// discarded — the same canonical chunk alignment, the same variant choice,
// the same decode owner rotation — so the rebuilt KV placement equals what
// an unfailed cluster holds, float for float. In-flight requests are never
// faulted while recovery is armed: a failed prefill chunk stays at the queue
// head, a failed decode batch is requeued in order, and both retry after the
// rebuild as if the failure never happened.
//
// The prefix tree makes replay cheap when sessions share prompts: the old
// incarnation's entries are purged (their KV died with it), but each
// replayed session donates its canonical prefix back, so every later
// session that shares it re-prefills only the miss suffix. That, plus the
// tree being repopulated for future traffic, is the PR-2 primitive doing
// recovery work.

// logSeg is one uninterrupted run of a session's resident tokens: prefill
// chunks (decode=false) or decode steps (decode=true). Replay preserves the
// segment kinds because the two paths place KV differently — prefill rows
// shard by the load-balance plan, decode rows land on the per-step owner
// rank — and bit-identity needs the original placement, not just the
// original tokens.
type logSeg struct {
	decode bool
	toks   []int
}

// RecoveryStats is the /v1/stats "recovery" block. Its counts are the
// recorder's cp_recovery_replays_total and cp_recovery_total{field}.
type RecoveryStats struct {
	// Enabled mirrors the -recover flag.
	Enabled bool `json:"enabled"`
	// Epoch is the cluster incarnation (1 = never rebuilt), the recorder's
	// cp_cluster_epoch.
	Epoch uint64 `json:"epoch"`
	// Rebuilds counts completed epoch rebuilds; Attempts counts tries
	// (failed dials included). Attempts is bounded by MaxRecoveries for the
	// scheduler's lifetime.
	Rebuilds      int64 `json:"rebuilds"`
	Attempts      int64 `json:"attempts"`
	MaxRecoveries int   `json:"max_recoveries"`
	// RecoveredSessions/LostSessions count sessions replayed back to life
	// vs. faulted (replay failed, or the recovery budget ran out).
	RecoveredSessions int64 `json:"recovered_sessions"`
	LostSessions      int64 `json:"lost_sessions"`
	// ReplayedTokens counts tokens recomputed during replay (prefill chunks
	// and decode steps); ReplayCachedTokens counts replay tokens served
	// from the prefix tree instead of recomputed.
	ReplayedTokens     int64 `json:"replayed_tokens"`
	ReplayCachedTokens int64 `json:"replay_cached_tokens"`
	// InProgress is true while a rebuild+replay is executing.
	InProgress bool `json:"in_progress"`
	// LastError describes the most recent failure that triggered (or
	// aborted) a recovery.
	LastError string `json:"last_error,omitempty"`
}

// logTokens records resident tokens in a session record's replay log,
// merging into the tail segment when the kind matches. No-op unless recovery
// is armed — the log is pure overhead otherwise.
func (s *Scheduler) logTokens(st *sessionState, decode bool, toks ...int) {
	if !s.cfg.Recover || len(toks) == 0 {
		return
	}
	if n := len(st.log); n > 0 && st.log[n-1].decode == decode {
		st.log[n-1].toks = append(st.log[n-1].toks, toks...)
	} else {
		st.log = append(st.log, logSeg{decode: decode, toks: append([]int(nil), toks...)})
	}
}

// recoveryArmedLocked reports whether an infrastructure failure should be
// absorbed by rebuild+replay rather than faulting sessions; caller holds
// s.mu.
func (s *Scheduler) recoveryArmedLocked() bool {
	return s.cfg.Recover && !s.closed && s.attempts < int64(s.cfg.MaxRecoveries)
}

// scheduleRecoveryLocked records the first unhandled failure cause and
// wakes the loop; caller holds s.mu.
func (s *Scheduler) scheduleRecoveryLocked(cause error) {
	if s.needRecovery == nil {
		s.needRecovery = cause
		s.lastError = cause.Error()
	}
	s.cond.Broadcast()
}

// watchFailures subscribes to the cluster's failure events so recovery
// starts while the cluster is idle — a dead rank is repaired before the
// next request trips over it, not because of it. Events carry the epoch of
// the incarnation that produced them: one from an incarnation recovery
// already retired (a peer's death throes consumed late) must not re-arm a
// rebuild of the healthy successor.
func (s *Scheduler) watchFailures() {
	ch := s.exec.Failures()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			s.mu.Lock()
			if !s.closed && ev.Epoch >= uint64(count(s.gEpoch)) {
				s.scheduleRecoveryLocked(fmt.Errorf("cluster failure: rank %d: %v", ev.Peer, ev.Cause))
			}
			s.mu.Unlock()
		case <-s.watchStop:
			return
		}
	}
}

// replaySnapshot is one session's replay input, its record captured under
// s.mu before the cluster work starts.
type replaySnapshot struct {
	id int
	sessionState
}

// maybeRecover runs a pending recovery: epoch rebuild plus token-log replay
// of every live session, on the step-loop thread, before any other cluster
// work. Attempts are bounded by MaxRecoveries for the scheduler's lifetime;
// when the budget is spent (or the scheduler closed), pending and future
// failures fall back to the fault semantics recovery-off mode always had.
func (s *Scheduler) maybeRecover() {
	s.mu.Lock()
	cause := s.needRecovery
	if cause == nil {
		s.mu.Unlock()
		return
	}
	s.needRecovery = nil
	if !s.recoveryArmedLocked() {
		// The scheduler closed, or an idle-detection event arrived after the
		// budget was spent. No request is parked waiting on this recovery
		// (the chunk/batch error paths stop requeueing once the budget is
		// gone), so fall back to letting command errors fault sessions
		// individually.
		s.lastError = cause.Error()
		s.mu.Unlock()
		return
	}
	s.recovering = true
	s.mu.Unlock()

	s.execMu.Lock()
	err := s.recoverClusterLocked(cause)
	s.execMu.Unlock()

	s.mu.Lock()
	s.recovering = false
	if err != nil {
		s.lastError = err.Error()
		s.failRecoverableLocked(err)
	}
	// Events that arrived while we were rebuilding describe the incarnation
	// we just retired; absorbing them prevents a pointless second rebuild.
	// A genuinely new failure is still caught — by the next event or by the
	// next command error.
	s.needRecovery = nil
	s.cond.Broadcast()
	s.mu.Unlock()
}

// recoverClusterLocked loops rebuild+replay attempts within the recovery
// budget; caller holds execMu (never s.mu).
func (s *Scheduler) recoverClusterLocked(cause error) error {
	lastErr := cause
	tRec := s.now()
	for {
		s.mu.Lock()
		s.lastError = lastErr.Error()
		if s.closed {
			// Shutdown landed mid-recovery: every waiting request was
			// already failed by Close, so rebuild attempts (each up to a
			// dial timeout against possibly-dead workers) would only stall
			// the drain.
			s.mu.Unlock()
			return fmt.Errorf("server: recovery abandoned at shutdown: %w", lastErr)
		}
		if s.attempts >= int64(s.cfg.MaxRecoveries) {
			s.mu.Unlock()
			return fmt.Errorf("server: recovery budget of %d attempts spent: %w", s.cfg.MaxRecoveries, lastErr)
		}
		s.attempts++
		// Clients that hung up while the failure was in flight must not be
		// re-driven: reap their requests and retire the sessions that held
		// only such work before the replay set is snapshotted, or recovery
		// replays — at full prefill cost — streams nobody is reading.
		s.reapCanceledLocked()
		sessions := s.replaySetLocked()
		s.mu.Unlock()

		if err := s.exec.Rebuild(); err != nil {
			lastErr = err
			continue
		}
		// The old incarnation's cached prefixes died with its rank
		// registries; their Release calls are epoch-guarded no-ops. Replay
		// repopulates the tree below.
		if s.tree != nil {
			s.tree.Clear()
		}
		if err := s.replayAll(sessions); err != nil {
			lastErr = err // the fresh incarnation failed too; try again
			continue
		}
		epoch := s.exec.Epoch()
		s.add(cReplay, 1)
		s.gEpoch.Set(float64(epoch))
		s.rec.RecordSpan(trace.Span{
			Name: "recovery.replay", Cat: "recovery", Rank: trace.CoordinatorRank, Seq: trace.NoSeq,
			Epoch: epoch,
			Start: tRec.UnixNano(), Dur: s.now().Sub(tRec).Nanoseconds(),
			Args: map[string]int64{"sessions": int64(len(sessions)), "epoch": int64(epoch)},
		})
		return nil
	}
}

// reapCanceledLocked ends every queued request whose context has ended —
// in the queue, it would end at its next claim — and schedules the eviction
// of sessions whose contribution is now garbage. Recovery is the one point
// where this sweep over the whole queue is worthwhile: without it, the
// replay rebuilds KV for vanished clients. Caller holds s.mu.
func (s *Scheduler) reapCanceledLocked() {
	for _, r := range s.dequeueLocked(func(r *request) bool { return r.ctx.Err() != nil }) {
		s.exitLocked(r, outCanceled, nil, false)
	}
}

// replaySetLocked snapshots every session with a replay log, id-sorted so
// sibling sessions sharing a prompt replay in a deterministic order (the
// first donates its canonical prefix, the rest hit it); caller holds s.mu.
// A session scheduled for eviction (released, lost or quarantined) has no
// log: its KV is condemned, not recoverable state.
func (s *Scheduler) replaySetLocked() []replaySnapshot {
	var out []replaySnapshot
	for id, st := range s.sessions {
		if len(st.log) > 0 {
			out = append(out, replaySnapshot{id, st})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// replayAll replays every snapshot onto the freshly rebuilt cluster. A
// session whose replay fails deterministically (KV capacity) is lost
// individually; any other failure is infrastructure and retries the whole
// attempt. Caller holds execMu.
func (s *Scheduler) replayAll(sessions []replaySnapshot) error {
	recovered := 0
	for _, ss := range sessions {
		if rerr := s.replaySession(ss); rerr != nil {
			var ce *transformer.CapacityError
			if errors.As(rerr, &ce) {
				// This session no longer fits (the whole fleet's KV is being
				// re-packed); shed exactly it and keep replaying the rest.
				s.exec.Drop(ss.id)
				s.mu.Lock()
				s.loseSessionLocked(ss.id, rerr)
				s.mu.Unlock()
				continue
			}
			return fmt.Errorf("server: replaying session %d: %w", ss.id, rerr)
		}
		recovered++
		if !ss.noDetach {
			s.donatePrefix(ss.id, ss.history)
		}
	}
	s.add(cRecovered, recovered)
	return nil
}

// replaySession feeds one session's token log back through the live paths
// with the results discarded: prefill segments through prefillChunk (so a
// sibling's donated prefix warm-starts them), decode segments as decode
// steps of one. Tokens recomputed and tokens served from the tree are
// counted into RecoveryStats, not ReuseStats, whether or not the replay
// completes. Caller holds execMu.
func (s *Scheduler) replaySession(ss replaySnapshot) error {
	var computed, cached int
	defer func() {
		s.add(cReplayed, computed)
		s.add(cReplayCached, cached)
	}()
	t := s.now()
	for _, seg := range ss.log {
		if seg.decode {
			for _, tok := range seg.toks {
				if _, err := s.exec.DecodeNext([]int{ss.id}, []int{tok}); err != nil {
					return err
				}
				computed++
			}
			continue
		}
		r := &request{session: ss.id, prompt: seg.toks, noCache: ss.noDetach}
		for r.consumed < len(seg.toks) {
			out := s.prefillChunk(r, t)
			cached += out.adopted
			if out.err != nil {
				return out.err
			}
			computed += out.n
			t = out.end
		}
	}
	return nil
}

// loseSessionLocked faults one session out of recovery: its record is
// deleted, its queued requests fail with an ExecError carrying the cause,
// any partially replayed KV is scheduled for eviction, and its admission
// slot returns to the pool. Caller holds s.mu.
func (s *Scheduler) loseSessionLocked(id int, cause error) {
	s.dropSessionLocked(id, nil, outFailed, fmt.Errorf("session %d lost in recovery: %w", id, cause))
	s.add(cLost, 1)
}

// failRecoverableLocked is the terminal fallback once the recovery budget
// is spent: every session with a replay log is lost, exactly as an unarmed
// scheduler would have faulted it at the original failure. Caller holds
// s.mu.
func (s *Scheduler) failRecoverableLocked(cause error) {
	for _, ss := range s.replaySetLocked() {
		s.loseSessionLocked(ss.id, cause)
	}
}
