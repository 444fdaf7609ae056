package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/trace"
)

// request is one client call moving through the scheduler: an optional
// prefill phase (prompt consumed in token-budget chunks) followed by zero or
// more decode steps that join the per-iteration fused batch. Recovery replay
// builds bare requests (session, prompt, noCache) to feed logged tokens back
// through prefillChunk.
type request struct {
	id      uint64
	session int

	prompt   []int // tokens to prefill; nil for decode-only requests
	consumed int   // chunk progress
	// adopted is the prefix-tree hit this request's session was seeded
	// with, held until the first miss-suffix chunk succeeds so the hit
	// accounting lands exactly once — even when a chunk failure and
	// recovery make prefillChunk re-enter with consumed > 0.
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

// contributedKV reports whether a queued request has put KV of its own into
// its session — consumed part of its prompt (a prefill head between chunks,
// or a generate stream now decoding, whose client will never send the
// DELETE). Canceling such a request evicts the session: partial prompt KV is
// unusable. One that is still waiting for admission or its first chunk, or
// a decode-only step, contributed nothing, and its session id may be in use
// by a sibling request's live KV.
func (r *request) contributedKV() bool { return r.consumed > 0 }

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

func (s *Scheduler) newRequest(session int, prompt []int, opts RequestOptions) *request {
	r := &request{session: session, prompt: prompt, noCache: opts.NoPrefixCache, done: make(chan struct{})}
	if opts.Cohort != "" {
		r.cohort = s.cohorts.Canon(opts.Cohort)
	}
	return r
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
	r, err := s.newGenerate(session, prompt, maxTokens, opts)
	if err != nil {
		return nil, err
	}
	if err := s.submit(ctx, r); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return &GenerateResult{Tokens: r.tokens, TTFTMs: r.ttftMs, TTITMs: r.ttitMs}, nil
}

// newGenerate checks a generate call's arguments and builds its request.
func (s *Scheduler) newGenerate(session int, prompt []int, maxTokens int, opts RequestOptions) (*request, error) {
	if len(prompt) == 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("server: generate needs a prompt and positive max_tokens")
	}
	if maxTokens > s.cfg.MaxTokens {
		// One stream must not pin a decode lane (and grow per-rank KV)
		// effectively forever.
		return nil, fmt.Errorf("server: max_tokens %d exceeds cap %d", maxTokens, s.cfg.MaxTokens)
	}
	r := s.newRequest(session, prompt, opts)
	r.pending, r.collect = maxTokens-1, true
	return r, nil
}

// PrefillWith admits the tokens as chunked prefill work for the session and
// returns the greedy next token once the whole prompt is resident.
func (s *Scheduler) PrefillWith(ctx context.Context, session int, tokens []int, opts RequestOptions) (int, error) {
	if len(tokens) == 0 {
		return 0, fmt.Errorf("server: prefill needs tokens")
	}
	r := s.newRequest(session, tokens, opts)
	if err := s.submit(ctx, r); err != nil {
		return 0, err
	}
	return r.next, r.err
}

// Decode joins the next iteration's fused decode batch with one token for an
// already-prefilled session and returns the greedy next token.
func (s *Scheduler) Decode(ctx context.Context, session, token int) (int, error) {
	r := s.newRequest(session, nil, RequestOptions{})
	r.pending, r.token = 1, token
	if err := s.submit(ctx, r); err != nil {
		return 0, err
	}
	return r.next, r.err
}

// enqueue validates the request and queues it without blocking; r.done
// closes when it completes or fails.
func (s *Scheduler) enqueue(r *request) error {
	// Validate before the request can occupy — or block on — an admission
	// slot: a doomed request must fail fast even under backpressure, not
	// wait for capacity it will never use (nor reach the ring, where a
	// mid-pass failure stalls every peer rank).
	if r.session < 0 {
		return fmt.Errorf("server: negative session id %d", r.session)
	}
	vocab := s.model.VocabSize
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
	now := s.now()
	r.start, r.queuedAt, r.lastStep = now, now, now
	cls := ClassDecode
	if len(r.prompt) > 0 {
		cls = ClassPrefill
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
	s.rec.CounterSeries("cp_requests_total", trace.L("class", string(cls))).Inc(1)
	s.cohortHandlesLocked(r.cohort).req.Inc(1)
	s.cond.Signal()
	s.mu.Unlock()
	return nil
}

// submit enqueues the request and blocks until it completes, fails, or —
// while still queued — its context is canceled. A disconnected client must
// not leak a goroutine parked in the admission queue forever.
func (s *Scheduler) submit(ctx context.Context, r *request) error {
	if err := s.enqueue(r); err != nil {
		return err
	}
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
	ok := len(s.dequeueLocked(func(x *request) bool { return x == r && s.executing != r })) > 0
	if ok {
		r.cancelCause = cause
		s.abortCanceledLocked(r, r.contributedKV())
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
		r.queuedAt = s.now()
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
