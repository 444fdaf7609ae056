package server

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/prefixcache"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// ReuseStats aggregates prefix-reuse and variant-selection telemetry for
// live traffic; recovery replay keeps its own counts in RecoveryStats. Token
// counts cover prompt prefill only: cached tokens were served from the
// prefix tree, computed tokens went through a ring pass (they are
// BatchStats.PrefillTokens). Hits and Detached are the recorder's
// cp_prefix_adopt_total and cp_prefix_detach_total, the other counts its
// cp_reuse_total{field}.
type ReuseStats struct {
	Lookups        int64 `json:"lookups"`         // first-chunk prefix-tree consultations
	Hits           int64 `json:"hits"`            // adoptions settled by a successful suffix chunk
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
	lookedUp bool          // the pass consulted the prefix tree
	adopted  int           // tokens seeded from the prefix tree on this pass, 0 if none
	pos, n   int           // the chunk covered absolute positions [pos, pos+n)
	variant  model.Variant // the ring variant the chunk ran as
	next     int           // the token sampled from position pos+n-1, the chunk's last
	end      time.Time     // read once, when the last ring pass came back
	err      error
}

// prefillChunk runs the next chunk of r's prompt, beginning at start; caller
// holds execMu. It is the only chunk path: the live step and recovery replay
// both come through here, so a replayed session is placed by the very code
// that placed it the first time. The first chunk of a fresh sequence
// consults the prefix tree and seeds the session from the longest cached
// prefix; every chunk is aligned to absolute TokenBudget boundaries and,
// under model.Auto, selects its ring variant from the chunk's miss rate
// (Equation 1). The request's progress advances only on success, except that
// an adoption stays adopted (its KV is resident). Counting is the caller's.
func (s *Scheduler) prefillChunk(r *request, start time.Time) chunkOutcome {
	var out chunkOutcome
	if s.tree != nil && r.consumed == 0 && !r.noCache && s.exec.SeqLen(r.session) == 0 {
		out.lookedUp = true
		if hit, entry := s.tree.Lookup(r.prompt); hit > 0 {
			if pre, ok := entry.(*transformer.PrefixKV); ok && s.exec.AdoptPrefix(r.session, pre) == nil {
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
	out.variant = s.cfg.Variant
	if out.variant == model.Auto {
		out.variant = model.ChooseVariant(s.model, out.n, out.pos)
	}
	evicted := 0
	for {
		out.next, out.err = s.exec.PrefillNext(r.session, chunk, out.variant)
		if _, retry := s.evictForRoom(out.err, out.n, &evicted); !retry {
			break
		}
	}
	out.end = s.now()
	if out.err == nil {
		r.consumed += out.n
	}
	return out
}

// evictForRoom is the one retry under KV-capacity pressure: after an
// executor call failed with err, it returns the CapacityError (nil for any
// other failure) and whether evicting cold prefix-tree branches shrank the
// tree, so the call is worth rerunning. Capacity pressure surfaces before
// any ring pass or cache mutation, so a rerun is safe; cold branches are
// worth less than a live request. An evicted leaf whose pages a live
// sequence pins frees no physical rows, so one eviction proves nothing: the
// first round asks for rows tokens per offending sequence and each later one
// for twice the last (*evicted, 0 before the first), keeping the retries
// logarithmic in the tree size. Caller holds execMu.
func (s *Scheduler) evictForRoom(err error, rows int, evicted *int) (*transformer.CapacityError, bool) {
	if err == nil {
		return nil, false
	}
	// Declared past the success path: errors.As moves ce to the heap.
	var ce *transformer.CapacityError
	if !errors.As(err, &ce) {
		return nil, false
	}
	if *evicted == 0 {
		*evicted = rows * len(ce.Seqs)
	} else {
		*evicted *= 2
	}
	return ce, s.tree != nil && s.tree.EvictTokens(*evicted) > 0
}

// runPrefillChunk is the live prefill phase: one chunk of the queue head
// through prefillChunk, then landChunkLocked. Returns the reading taken when
// the chunk came back (start itself when there is no chunk to run).
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
	s.mu.Lock()
	s.landChunkLocked(pj, out, report, start)
	s.executing = nil
	s.mu.Unlock()
	return out.end
}

// landChunkLocked settles a live chunk: the reuse counters, the session
// record (replay log, canonical prefix, residency), spans, TTFT, and the
// request's exit or hand-off to the decode pool; caller holds s.mu.
func (s *Scheduler) landChunkLocked(pj *request, out chunkOutcome, report *IterReport, start time.Time) {
	now := out.end
	if out.lookedUp {
		s.add(cLookups, 1)
	}
	if out.err == nil {
		// A chunk and its tokens count once its ring pass succeeded,
		// whatever then becomes of its request.
		s.add(cChunk, 1)
		s.add(cPrefillTokens, out.n)
		if out.variant == model.PassQ {
			s.add(cPassQ, 1)
		} else {
			s.add(cPassKV, 1)
		}
		// Hit accounting lands only once the first miss-suffix chunk
		// succeeds: an adoption whose request then fails (and is
		// quarantined) served the client nothing, and must not inflate the
		// reported hit rate. The pending count rides the request, not the
		// stack, so a chunk retried after recovery still settles it.
		if pj.adopted > 0 {
			s.add(cAdopt, 1)
			s.add(cCached, pj.adopted)
			pj.adopted = 0
		}
	}
	if len(s.prefills) == 0 || s.prefills[0] != pj {
		// A concurrent Release purged this request (and answered it) while
		// its chunk was executing. The chunk's KV is covered by the
		// Release's pending drop, which the next Step applies before any
		// re-admitted same-id session can prefill; the session's record,
		// if any, is that successor's.
		return
	}
	st := s.sessions[pj.session] // the queued head holds its session's slot
	// The canonical prefix is only ever read to donate it, which a session
	// that opted out (sticky noDetach) never does: such a session records
	// none.
	keepHistory := !st.noDetach
	if out.adopted > 0 {
		// The adopted KV is resident whatever became of the chunk, so the
		// token log and the canonical prefix record it unconditionally —
		// tying them to the chunk's success would desynchronize them from
		// the cluster if the chunk failed and recovery replayed the session
		// (the retried chunk re-enters with consumed > 0 and never adopts
		// again). The prefix is a copy: the caller may reuse its prompt.
		s.logTokens(&st, false, pj.prompt[:out.adopted]...)
		if keepHistory {
			st.history = make([]int, out.adopted, out.adopted+s.canonicalRoom(pj, out.adopted))
			copy(st.history, pj.prompt)
		}
		s.sessions[pj.session] = st
	}
	if err := out.err; err != nil {
		var ce *transformer.CapacityError
		if !errors.As(err, &ce) && s.recoveryArmedLocked() {
			// Infrastructure failure with recovery armed: the request stays
			// at the queue head and its session keeps its state — the next
			// iteration rebuilds the cluster, replays the token log (which
			// covers everything up to pj.consumed), and retries this chunk.
			s.scheduleRecoveryLocked(fmt.Errorf("prefill chunk for session %d: %w", pj.session, err))
			return
		}
		if ce != nil {
			s.add(cCapacity, 1)
		}
		s.prefills = s.prefills[1:]
		s.exitLocked(pj, outFailed, fmt.Errorf("prefill: %w", err), true)
		return
	}
	chunk := pj.prompt[pj.consumed-out.n : pj.consumed]
	s.logTokens(&st, false, chunk...)
	args := []trace.Arg{{Key: "tokens", Val: int64(out.n)}, {Key: "pos", Val: int64(out.pos)}}
	if pj.cohort != "" {
		args = append(args, trace.Arg{Key: "cohort", Val: s.cohorts.ID(pj.cohort)})
	}
	s.span("prefill.chunk", "prefill", pj.session, start, now, args...)
	// The canonical prefix grows only through full-budget chunks landing
	// exactly on its frontier; the first tail chunk or decode step freezes
	// it for good. Only canonical tokens may ever enter the prefix tree.
	// The first chunk a request adds makes room for all it can add.
	if keepHistory && out.pos == len(st.history) && out.pos%s.cfg.TokenBudget == 0 && out.n == s.cfg.TokenBudget {
		if cap(st.history)-len(st.history) < out.n {
			st.history = slices.Grow(st.history, s.canonicalRoom(pj, pj.consumed-out.n))
		}
		st.history = append(st.history, chunk...)
	}
	st.resident = true
	s.sessions[pj.session] = st
	if pj.consumed < len(pj.prompt) {
		pj.queuedAt = now // next chunk becomes runnable now
		return
	}
	report.PrefillDone = true
	s.prefills = s.prefills[1:]
	pj.ttftMs = msOf(now.Sub(pj.start))
	s.hTTFT.Observe(now.Sub(pj.start).Seconds())
	s.cohortHandlesLocked(pj.cohort).ttft.Observe(now.Sub(pj.start).Seconds())
	pj.next = out.next
	pj.lastStep = now
	if pj.collect {
		pj.tokens = append(pj.tokens, out.next)
	}
	if pj.pending > 0 {
		pj.token = out.next
		pj.queuedAt = now
		s.decodes = append(s.decodes, pj)
		s.cond.Signal()
		return
	}
	s.exitLocked(pj, outServed, nil, true)
}

// canonicalRoom bounds the canonical tokens r can still add to its
// session's prefix from prompt offset from on: whole budget-sized chunks
// only.
func (s *Scheduler) canonicalRoom(r *request, from int) int {
	return (len(r.prompt) - from) / s.cfg.TokenBudget * s.cfg.TokenBudget
}

// sessionDrop is a scheduled KV eviction, settled when it is scheduled:
// donate is the canonical prefix a clean release detaches into the tree
// first (nil after faults — indeterminate KV must never seed other sessions
// — and for sessions that opted out).
type sessionDrop struct {
	session int
	donate  []int
}

// applyDrops evicts every pending session's KV under the execution lock,
// donating first what each drop carries; the tree's spans keep the pages
// alive while the sequence itself is dropped.
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
		s.donatePrefix(d.session, d.donate)
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
	s.add(cDetach, 1)
	s.add(cDetachedTokens, added)
	s.span("prefix.detach", "cache", session, start, s.now(), trace.Arg{Key: "tokens", Val: int64(added)})
}
