package server

import (
	"context"
	"fmt"
	"time"
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

	// ctx is the client's context, the only record of its cancellation:
	// the step loop claims the request only while it is live.
	ctx  context.Context
	next int // next-token result for prefill-/decode-only requests
	err  error
	done chan struct{}
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
	r := &request{session: session, prompt: prompt, noCache: opts.NoPrefixCache, ctx: context.Background(), done: make(chan struct{})}
	if opts.Cohort != "" {
		r.cohort = s.cohorts.Canon(opts.Cohort)
	}
	return r
}

// Generate admits a prompt, prefills it chunk by chunk, then keeps the
// session in the fused decode batch until maxTokens greedy tokens exist.
// Blocks until completion or ctx cancellation. The step loop claims each
// chunk or step only while ctx is live: a ctx that ended before then ends
// the request unclaimed, and one that ends while a chunk or step runs takes
// effect at the next claim, the running one's result standing.
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
	// Sized once: the prefill's token and one token and gap per decode step,
	// so a stream never regrows them. A one-token stream keeps a nil gap
	// list (ttit_ms: null), as before.
	r.tokens = make([]int, 0, maxTokens)
	if maxTokens > 1 {
		r.ttitMs = make([]float64, 0, maxTokens-1)
	}
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
	now := s.now()
	r.start, r.queuedAt, r.lastStep = now, now, now
	cls := ClassDecode
	if len(r.prompt) > 0 {
		cls = ClassPrefill
		if st, ok := s.sessions[r.session]; ok {
			// Follow-up turn of an admitted session: no new admission slot.
			if r.noCache && !st.noDetach {
				st.noDetach = true
				s.sessions[r.session] = st
			}
			s.prefills = append(s.prefills, r)
		} else {
			if s.brownoutLocked(now) {
				// Brownout: new sessions are the lowest-priority work — shed
				// this one (and any queued admission already past the SLO)
				// rather than deepen a backlog we cannot drain in time.
				s.shedAdmitQueueLocked(now)
				s.add(cShed, 1)
				ra := s.retryAfterLocked()
				s.mu.Unlock()
				return &OverloadError{RetryAfter: ra}
			}
			s.admit = append(s.admit, r)
			s.admitLocked()
		}
	} else {
		if !s.sessions[r.session].resident {
			s.mu.Unlock()
			return fmt.Errorf("server: session %d: %w", r.session, ErrUnknownSession)
		}
		s.decodes = append(s.decodes, r)
	}
	s.cRequests[cls].Inc(1)
	s.cohortHandlesLocked(r.cohort).req.Inc(1)
	s.cond.Signal()
	s.mu.Unlock()
	return nil
}

// submit enqueues the request under ctx and blocks until it ends. The step
// loop reads ctx when it claims the request, so a request whose ctx has
// ended never reaches the executor, whichever goroutine runs first. When ctx
// ends, this goroutine also ends the request if it is queued and unclaimed
// (neither the prefill head whose chunk is running nor a member of the
// running decode batch, which has left the queue), so a disconnected client
// is not left parked in the admission queue; a claimed request ends at its
// next claim, the running chunk's or step's own result standing.
func (s *Scheduler) submit(ctx context.Context, r *request) error {
	r.ctx = ctx
	if err := s.enqueue(r); err != nil {
		return err
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		s.mu.Lock()
		if len(s.dequeueLocked(func(x *request) bool { return x == r && s.executing != r })) > 0 {
			s.exitLocked(r, outCanceled, nil, false)
		}
		s.mu.Unlock()
		<-r.done // r.err carries the outcome
	}
	return nil
}

// admitLocked moves waiting new sessions into the prefill queue while
// admission slots remain, giving each a session record; caller holds s.mu.
func (s *Scheduler) admitLocked() {
	for len(s.admit) > 0 {
		r := s.admit[0]
		st, ok := s.sessions[r.session]
		if !ok && len(s.sessions) >= s.cfg.MaxSessions {
			return // backpressure: the queue waits for a Release
		}
		st.noDetach = st.noDetach || r.noCache
		s.sessions[r.session] = st
		s.admit = s.admit[1:]
		// Queue waits measure runnable-to-execution delay; time parked
		// behind the admission cap is a different (observable) metric.
		r.queuedAt = s.now()
		s.prefills = append(s.prefills, r)
	}
}
