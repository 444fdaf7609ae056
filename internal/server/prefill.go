package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/prefixcache"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// ReuseStats aggregates prefix-reuse and variant-selection telemetry. Token
// counts cover prompt prefill only: cached tokens were served from the
// prefix tree, computed tokens went through a ring pass. Recovery replay
// counts here by the same rules as live traffic.
type ReuseStats struct {
	Lookups        int64 `json:"lookups"`         // first-chunk prefix-tree consultations
	Hits           int64 `json:"hits"`            // lookups that adopted a cached prefix
	CachedTokens   int64 `json:"cached_tokens"`   // prompt tokens adopted from the tree
	ComputedTokens int64 `json:"computed_tokens"` // prompt tokens prefilled on the ring
	Detached       int64 `json:"detached"`        // sessions that donated KV
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

// chunkOutcome is what one pass through prefillChunk did to the ranks.
type chunkOutcome struct {
	adopted int       // tokens seeded from the prefix tree on this pass, 0 if none
	pos, n  int       // the chunk covered absolute positions [pos, pos+n)
	next    int       // the token sampled from position pos+n-1, the chunk's last
	end     time.Time // read once, when the last ring pass came back
	err     error
}

// prefillChunk runs the next chunk of r's prompt, beginning at start; caller
// holds execMu. It is the only chunk path: the live step and recovery replay
// both come through here, so a replayed session is placed by the very code
// that placed it the first time. The first chunk of a fresh sequence
// consults the prefix tree and seeds the session from the longest cached
// prefix; every chunk is aligned to absolute TokenBudget boundaries and,
// under model.Auto, selects its ring variant from the chunk's miss rate
// (Equation 1). The request's progress and the reuse counters advance only
// on success, except that an adoption stays adopted (its KV is resident).
func (s *Scheduler) prefillChunk(r *request, start time.Time) chunkOutcome {
	var out chunkOutcome
	lookedUp := false
	if s.tree != nil && r.consumed == 0 && !r.noCache && s.exec.SeqLen(r.session) == 0 {
		lookedUp = true
		if hit, entry := s.tree.Lookup(r.prompt); hit > 0 {
			if pre, ok := entry.(*transformer.PrefixKV); ok && s.exec.AdoptPrefix(r.session, pre) == nil {
				s.rec.CounterSeries("cp_prefix_adopt_total").Inc(1)
				s.span("prefix.adopt", "cache", r.session, start, s.now(), trace.Arg{Key: "tokens", Val: int64(hit)})
				out.adopted, r.adopted, r.consumed = hit, hit, hit
			}
		}
	}
	out.pos = s.exec.SeqLen(r.session)
	// Align chunks to absolute multiples of the budget: per-rank KV
	// placement (and the auto variant choice) is then a pure function of
	// position, which is what lets a cached prefix replay a cold prefill
	// bit for bit.
	out.n = s.cfg.TokenBudget - out.pos%s.cfg.TokenBudget
	if rem := len(r.prompt) - r.consumed; out.n > rem {
		out.n = rem
	}
	chunk := r.prompt[r.consumed : r.consumed+out.n]
	variant := s.cfg.Variant
	if variant == model.Auto {
		variant = model.ChooseVariant(s.model, out.n, out.pos)
	}
	out.next, out.err = s.exec.PrefillNext(r.session, chunk, variant)
	for evictReq := out.n; out.err != nil; evictReq *= 2 {
		// A rank ran out of KV room before touching any cache. Cold tree
		// branches are worth less than a live request: keep shedding LRU
		// leaves and retrying while the tree can still shrink — an evicted
		// leaf whose pages a live sequence pins frees no physical rows, so
		// a single eviction proves nothing. Doubling the request bounds the
		// retries logarithmically in the tree size.
		var ce *transformer.CapacityError
		if !errors.As(out.err, &ce) || s.tree == nil || s.tree.EvictTokens(evictReq) == 0 {
			break
		}
		out.next, out.err = s.exec.PrefillNext(r.session, chunk, variant)
	}
	out.end = s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if lookedUp {
		s.reuse.Lookups++
	}
	if out.err != nil {
		return out
	}
	// Hit accounting lands only once the first miss-suffix chunk succeeds:
	// an adoption whose request then fails (and is quarantined) served the
	// client nothing, and must not inflate the reported hit rate. The
	// pending count rides the request, not the stack, so a chunk retried
	// after recovery still settles it.
	if r.adopted > 0 {
		s.reuse.Hits++
		s.reuse.CachedTokens += int64(r.adopted)
		r.adopted = 0
	}
	s.reuse.ComputedTokens += int64(out.n)
	if variant == model.PassQ {
		s.reuse.PassQChunks++
	} else {
		s.reuse.PassKVChunks++
	}
	r.consumed += out.n
	return out
}

// runPrefillChunk is the live prefill phase: one chunk of the queue head
// through prefillChunk, then the bookkeeping only a served request has — the
// replay log, the canonical prefix, spans, TTFT, and the hand-off to the
// decode pool. Returns the reading taken when the chunk came back (start
// itself when there is no chunk to run).
func (s *Scheduler) runPrefillChunk(pj *request, report *IterReport, start time.Time) time.Time {
	if pj == nil {
		return start
	}
	s.mu.Lock()
	s.recordWaitLocked(ClassPrefill, pj, start)
	s.mu.Unlock()
	s.execMu.Lock()
	out := s.prefillChunk(pj, start)
	s.execMu.Unlock()
	report.PrefillSession, report.PrefillTokens = pj.session, out.n
	now := out.end
	s.mu.Lock()
	defer s.mu.Unlock()
	s.executing = nil
	if out.adopted > 0 {
		// The adopted KV is resident whatever became of the chunk, so the
		// token log and the canonical prefix record it unconditionally —
		// tying them to the chunk's success would desynchronize them from
		// the cluster if the chunk failed and recovery replayed the session
		// (the retried chunk re-enters with consumed > 0 and never adopts
		// again).
		s.appendLogLocked(pj.session, false, pj.prompt[:out.adopted]...)
		s.history[pj.session] = append([]int(nil), pj.prompt[:out.adopted]...)
	}
	if len(s.prefills) == 0 || s.prefills[0] != pj {
		// A concurrent Release purged this request (and completed it with
		// a released error) while its chunk was executing. The chunk's KV
		// is covered by the Release's pending drop, which the next Step
		// applies before any re-admitted same-id session can prefill.
		return now
	}
	if pj.canceled {
		// The client vanished while this chunk ran; stop burning ring
		// passes on its prompt. The chunk's KV is quarantined.
		s.prefills = s.prefills[1:]
		s.abortCanceledLocked(pj, true)
		return now
	}
	if err := out.err; err != nil {
		var ce *transformer.CapacityError
		if !errors.As(err, &ce) && s.recoveryArmedLocked() {
			// Infrastructure failure with recovery armed: the request stays
			// at the queue head and its session keeps its state — the next
			// iteration rebuilds the cluster, replays the token log (which
			// covers everything up to pj.consumed), and retries this chunk.
			s.scheduleRecoveryLocked(fmt.Errorf("prefill chunk for session %d: %w", pj.session, err))
			return now
		}
		if ce != nil {
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
		return now
	}
	chunk := pj.prompt[pj.consumed-out.n : pj.consumed]
	s.appendLogLocked(pj.session, false, chunk...)
	s.cChunk.Inc(1)
	if s.rec != nil {
		args := []trace.Arg{{Key: "tokens", Val: int64(out.n)}, {Key: "pos", Val: int64(out.pos)}}
		if pj.cohort != "" {
			args = append(args, trace.Arg{Key: "cohort", Val: s.cohorts.ID(pj.cohort)})
		}
		s.span("prefill.chunk", "prefill", pj.session, start, now, args...)
	}
	// The canonical prefix grows only through full-budget chunks landing
	// exactly on its frontier; the first tail chunk or decode step freezes
	// it for good. Only canonical tokens may ever enter the prefix tree.
	if out.pos == len(s.history[pj.session]) && out.pos%s.cfg.TokenBudget == 0 && out.n == s.cfg.TokenBudget {
		s.history[pj.session] = append(s.history[pj.session], chunk...)
	}
	s.prefilled[pj.session] = true
	if pj.consumed < len(pj.prompt) {
		pj.queuedAt = now // next chunk becomes runnable now
		return now
	}
	report.PrefillDone = true
	s.prefills = s.prefills[1:]
	next := out.next
	pj.ttftMs = float64(now.Sub(pj.start).Microseconds()) / 1000
	s.hTTFT.Observe(now.Sub(pj.start).Seconds())
	s.cohortHandlesLocked(pj.cohort).ttft.Observe(now.Sub(pj.start).Seconds())
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
		return now
	}
	s.cohortHandlesLocked(pj.cohort).e2e.Observe(now.Sub(pj.start).Seconds())
	close(pj.done)
	return now
}

// sessionDrop is a scheduled KV eviction; detach donates the session's
// canonical prefix to the tree first (false after faults — indeterminate KV
// must never seed other sessions).
type sessionDrop struct {
	session int
	detach  bool
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
	defer s.execMu.Unlock()
	for _, d := range drops {
		s.mu.Lock()
		hist := s.history[d.session]
		detach := d.detach && !s.noDetach[d.session]
		delete(s.history, d.session)
		delete(s.noDetach, d.session)
		delete(s.log, d.session) // evicted sessions are not replayable
		s.mu.Unlock()
		if detach {
			s.donatePrefix(d.session, hist)
		}
		s.exec.Drop(d.session)
	}
}

// donatePrefix detaches a resident session's canonical prefix (its tokens
// are hist) into the prefix tree, so reconnects, siblings sharing the prompt
// and sessions replayed after it hit warm KV; caller holds execMu.
func (s *Scheduler) donatePrefix(session int, hist []int) {
	if s.tree == nil || len(hist) < s.cfg.TokenBudget {
		return
	}
	start := s.now()
	added, err := s.tree.Insert(hist, func(depth int) (prefixcache.Entry, error) {
		return s.exec.DetachPrefix(session, depth)
	})
	if err != nil || added == 0 {
		return
	}
	s.mu.Lock()
	s.reuse.Detached++
	s.reuse.DetachedTokens += int64(added)
	s.mu.Unlock()
	s.rec.CounterSeries("cp_prefix_detach_total").Inc(1)
	s.span("prefix.detach", "cache", session, start, s.now(), trace.Arg{Key: "tokens", Val: int64(added)})
}
