package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// Step executes one scheduler iteration in manual mode: at most one
// token-budget chunk of the oldest waiting prefill plus one fused
// DecodeNext ring pass over every decode-ready session (capped at
// MaxBatch, at most one step per session). Returns false if no work was
// runnable — or always, as a no-op, when a background loop owns the
// scheduler: a second driver would race the loop and double-execute the
// claimed prefill chunk.
func (s *Scheduler) Step() (IterReport, bool) {
	if !s.cfg.Manual {
		return IterReport{PrefillSession: -1}, false
	}
	report, ok := s.step()
	report.DecodeSessions = append([]int(nil), report.DecodeSessions...)
	return report, ok
}

// step runs one iteration; callers are the background loop or Step. The
// report's DecodeSessions is the scheduler's own, valid until the next
// iteration.
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
	it := &s.iter
	dbatch := it.dbatch[:0]
	held := it.spare[:0]
	used := it.used
	clear(used)
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
	// The pool's old buffer is the next iteration's spare, cleared so that
	// it holds on to no finished request.
	clear(s.decodes[:cap(s.decodes)])
	it.dbatch, it.spare, s.decodes = dbatch, s.decodes[:0], held
	// Failing those requests may have been the last thing keeping their
	// quarantined sessions' admission slots occupied.
	for _, id := range deadSessions {
		s.maybeFreeSlotLocked(id)
	}
	if pj == nil && len(dbatch) == 0 {
		s.mu.Unlock()
		return IterReport{PrefillSession: -1}, false
	}
	prefillLeads := s.cfg.Policy == PrefillFirst ||
		(pj != nil && (len(dbatch) == 0 || pj.id < dbatch[0].id))
	// The clock is read once per boundary — here, then as each phase ends —
	// and the reading is handed on, so the phase spans tile the iteration
	// and every queue.wait span ends where the phase it waited for begins.
	start := s.now()
	s.mu.Unlock()

	report := IterReport{PrefillSession: -1}
	end := start
	if prefillLeads {
		end = s.runPrefillChunk(pj, &report, end)
	}
	end = s.runDecodeBatch(dbatch, &report, end)
	if !prefillLeads {
		end = s.runPrefillChunk(pj, &report, end)
	}
	dur := end.Sub(start)
	report.DurMs = float64(dur.Microseconds()) / 1000
	s.hStep.Observe(dur.Seconds())

	s.mu.Lock()
	b := &s.batch
	b.Iterations++
	b.OccupancySum += int64(report.Occupancy())
	b.MaxOccupancy = max(b.MaxOccupancy, report.Occupancy())
	b.MaxDecodeBatch = max(b.MaxDecodeBatch, len(report.DecodeSessions))
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
	last := s.lastIter.DecodeSessions
	s.lastIter = report
	s.lastIter.DecodeSessions = append(last[:0], report.DecodeSessions...)
	s.mu.Unlock()
	clear(dbatch)
	return report, true
}

// recordWaitLocked accounts the runnable-to-execution delay of a request
// whose phase begins at now; caller holds s.mu.
func (s *Scheduler) recordWaitLocked(c Class, r *request, now time.Time) {
	wait := now.Sub(r.queuedAt)
	st := s.queueStats[c]
	st.Executed++
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	s.hWait[c].Observe(wait.Seconds())
	// Span args are int64-valued, so the cohort rides as its pool id; the
	// id→name registry is exposed in /v1/stats cohort block order.
	if r.cohort != "" && s.rec != nil {
		s.span("queue.wait", string(c), trace.NoSeq, r.queuedAt, now, trace.Arg{Key: "cohort", Val: s.cohorts.ID(r.cohort)})
		return
	}
	s.span("queue.wait", string(c), trace.NoSeq, r.queuedAt, now)
}

// runDecodeBatch advances every request in the batch by one fused ring pass
// starting at start, requeues the ones with steps remaining, and returns the
// reading taken when the pass came back (start itself for an empty batch).
func (s *Scheduler) runDecodeBatch(dbatch []*request, report *IterReport, start time.Time) time.Time {
	if len(dbatch) == 0 {
		return start
	}
	s.mu.Lock()
	for _, r := range dbatch {
		s.recordWaitLocked(ClassDecode, r, start)
	}
	s.mu.Unlock()
	var out []int
	var err error
	evictReq := 0
	it := &s.iter
	for len(dbatch) > 0 {
		it.ids, it.toks = tensor.Grown(it.ids, len(dbatch)), tensor.Grown(it.toks, len(dbatch))
		for i, r := range dbatch {
			it.ids[i] = r.session
			it.toks[i] = r.token
		}
		s.execMu.Lock()
		out, err = s.exec.DecodeNext(it.ids, it.toks)
		if err == nil {
			s.execMu.Unlock()
			break
		}
		// Declared past the success path: errors.As moves ce to the heap.
		var ce *transformer.CapacityError
		if !errors.As(err, &ce) {
			s.execMu.Unlock()
			break
		}
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
		shrunk := s.tree != nil && s.tree.EvictTokens(evictReq) > 0
		s.execMu.Unlock()
		if shrunk {
			continue
		}
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
	}
	now := s.now()
	if len(dbatch) == 0 {
		return now
	}
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
			return now
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
		return now
	}
	if s.rec != nil {
		// A fused batch mixes cohorts, so the span carries one per-cohort
		// member count ("cohort.chat": 3) instead of a single id.
		it.args = append(it.args[:0], trace.Arg{Key: "batch", Val: int64(len(dbatch))})
		for _, r := range dbatch {
			if r.cohort != "" {
				it.args = countArg(it.args, s.cohortHandlesLocked(r.cohort).batchArg)
			}
		}
		s.span("decode.batch", "decode", trace.NoSeq, start, now, it.args...)
	}
	report.DecodeSessions = it.sessions[:0]
	for i, r := range dbatch {
		report.DecodeSessions = append(report.DecodeSessions, r.session)
		s.appendLogLocked(r.session, true, r.token)
		next := out[i]
		r.pending--
		if r.collect {
			r.tokens = append(r.tokens, next)
			r.ttitMs = append(r.ttitMs, float64(now.Sub(r.lastStep).Microseconds())/1000)
		}
		if !r.lastStep.IsZero() {
			s.hITL.Observe(now.Sub(r.lastStep).Seconds())
			s.cohortHandlesLocked(r.cohort).itl.Observe(now.Sub(r.lastStep).Seconds())
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
			s.cohortHandlesLocked(r.cohort).e2e.Observe(now.Sub(r.start).Seconds())
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
	it.sessions = report.DecodeSessions
	if len(s.decodes) > 0 {
		s.cond.Signal()
	}
	return now
}

// countArg adds one to the argument named key, appending it at 1 when args
// has none.
func countArg(args []trace.Arg, key string) []trace.Arg {
	for i := range args {
		if args[i].Key == key {
			args[i].Val++
			return args
		}
	}
	return append(args, trace.Arg{Key: key, Val: 1})
}
