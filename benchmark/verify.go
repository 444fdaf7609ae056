package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/perf"
	"repro/internal/transformer"
)

// prefillChunked feeds tokens to a sequence the way the scheduler does — in
// chunks aligned to absolute multiples of the token budget, the ring variant
// resolved per chunk from its miss rate — and returns the greedy next token.
func prefillChunked(c *transformer.Cluster, e Env, seq int, tokens []int) (int, error) {
	var last []float32
	for len(tokens) > 0 {
		pos := c.SeqLen(seq)
		n := min(e.TokenBudget-pos%e.TokenBudget, len(tokens))
		logits, err := c.Prefill(seq, tokens[:n], perf.ChooseVariant(c.W.Cfg.Model, n, pos))
		if err != nil {
			return 0, err
		}
		last, tokens = logits[len(logits)-1], tokens[n:]
	}
	return transformer.Argmax(last), nil
}

// directRequest replays one request straight on a cluster, issuing exactly
// the calls the scheduler would: the prompt in budget-aligned chunks with
// the ring variant resolved per chunk (Equation 1), the continuation's
// one-token prompt as its own chunk, then out-1 decode steps. It returns the
// greedy stream and the wall time of the two halves.
func directRequest(c *transformer.Cluster, e Env, seq int, prompt []int, out int) (stream []int, prefill, gen time.Duration, err error) {
	t0 := time.Now()
	next, err := prefillChunked(c, e, seq, prompt)
	if err != nil {
		return nil, 0, 0, err
	}
	prefill = time.Since(t0)
	stream = append(stream, next)
	t0 = time.Now()
	if next, err = prefillChunked(c, e, seq, []int{next}); err != nil {
		return nil, 0, 0, err
	}
	stream = append(stream, next)
	for len(stream) < out+1 {
		logits, err := c.Decode(seq, next)
		if err != nil {
			return nil, 0, 0, err
		}
		next = transformer.Argmax(logits)
		stream = append(stream, next)
	}
	return stream, prefill, time.Since(t0), nil
}

// verifier checks served streams against independent executions of the same
// weights. Verification is untimed: it runs after a round's measured phases.
type verifier struct {
	e Env
	w *transformer.Weights
}

func newVerifier(e Env) (*verifier, error) {
	w, err := transformer.NewWeights(e.Model)
	if err != nil {
		return nil, err
	}
	return &verifier{e: e, w: w}, nil
}

// checksPerRound is how many stream comparisons checkRound makes.
func (v *verifier) checksPerRound(w Workload) int {
	n := 1
	if w.Shared > 0 {
		n++
	}
	if w.TCP {
		n++
	}
	return n
}

// checkRound verifies the round's first request. Every workload: the served
// stream equals an unchunked single-rank execution of the same token ids.
// A workload with a shared corpus: the warm stream equals the same prompt
// served again with no_cache. A TCP workload: the stream equals an
// in-process cluster fed the scheduler's exact call sequence. Each mismatch
// is one error.
func (v *verifier) checkRound(r *rig, w Workload, in RoundInputs, samples []Sample) []error {
	rq := in.Clients[0][0]
	var got []int
	for _, s := range samples {
		if s.Session == rq.Session && s.Err == nil {
			got = s.Tokens
		}
	}
	if got == nil {
		errs := make([]error, v.checksPerRound(w))
		for i := range errs {
			errs[i] = fmt.Errorf("%s: session %d has no stream to verify", w.Name, rq.Session)
		}
		return errs
	}
	var errs []error
	// check compares the served stream with one independent execution.
	check := func(what string, stream func() ([]int, error)) {
		want, err := stream()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %s: %w", w.Name, what, err))
		} else if !slices.Equal(got, want) {
			errs = append(errs, fmt.Errorf("%s: served stream differs from %s", w.Name, what))
		}
	}
	check("single-rank reference", func() ([]int, error) {
		ref, err := transformer.NewCluster(v.w, 1)
		if err != nil {
			return nil, err
		}
		defer ref.Close()
		return ref.Generate(0, rq.Prompt, w.Out+1, perf.Auto)
	})
	if w.Shared > 0 {
		check("no_cache replay", func() ([]int, error) {
			cold := Request{Session: 1 << 20, Prompt: rq.Prompt}
			body, err := json.Marshal(prefillBody{Session: cold.Session, Tokens: cold.Prompt, NoCache: true})
			if err != nil {
				return nil, err
			}
			cold.PrefillBody = body
			s := r.request(w, cold, nil, -1)
			return s.Tokens, s.Err
		})
	}
	if w.TCP {
		check("in-process stream", func() ([]int, error) {
			mem, err := transformer.NewCluster(v.w, v.e.Ranks)
			if err != nil {
				return nil, err
			}
			defer mem.Close()
			want, _, _, err := directRequest(mem, v.e, 0, rq.Prompt, w.Out)
			return want, err
		})
	}
	return errs
}
