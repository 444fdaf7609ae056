package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/transformer"
)

// outcomeOf names the documented outcome a request's error reports, or
// returns an "undocumented" label.
func outcomeOf(err error) string {
	var oe *OverloadError
	var ee *ExecError
	switch {
	case err == nil:
		return "served"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, ErrReleased):
		return "released"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.As(err, &oe):
		return "shed"
	case errors.As(err, &ee):
		return "failed"
	}
	return "undocumented: " + err.Error()
}

// TestSchedulerLiveness drives one mixed script through a Manual scheduler
// over the cost executor on the virtual clock: KV capacity failing a prefill
// and a decode, a decode fault recovered and one faulted once the recovery
// budget is spent, a release whose drop waits while the same id is admitted
// again, a no_cache session, a client cancel, a timeout_ms deadline, and a
// brownout shedding a queued admission and rejecting a new one. Every
// request ends exactly once, with the outcome the script expects; at
// quiesce the session records, the pending drops and the executor's
// sequences are all gone; and the prefix tree holds exactly the canonical
// prefixes that clean releases and the recovery replay donated.
func TestSchedulerLiveness(t *testing.T) {
	const slo = 50 * time.Millisecond
	s, f, clk := newSeamScheduler(t, SchedulerConfig{
		TokenBudget: 4, MaxSessions: 3, Recover: true, MaxRecoveries: 1, BrownoutSLO: slo,
	})
	f.full = map[int]bool{}

	type call struct {
		name string
		want string
		done chan error
	}
	var calls []*call
	// start queues a blocking scheduler call under ctx and returns once it
	// is queued (or rejected).
	start := func(name, want string, ctx context.Context, fn func(ctx context.Context) error) *call {
		c := &call{name: name, want: want, done: make(chan error, 1)}
		calls = append(calls, c)
		enqueue(s, func() { c.done <- fn(ctx) })
		return c
	}
	bg := context.Background()
	prefill := func(name, want string, ctx context.Context, session int, prompt []int, opts RequestOptions) *call {
		return start(name, want, ctx, func(ctx context.Context) error {
			_, err := s.PrefillWith(ctx, session, prompt, opts)
			return err
		})
	}
	generate := func(name, want string, ctx context.Context, session int, prompt []int, maxTokens int) *call {
		return start(name, want, ctx, func(ctx context.Context) error {
			_, err := s.Generate(ctx, session, prompt, maxTokens)
			return err
		})
	}
	decode := func(name, want string, session, token int) *call {
		return start(name, want, bg, func(ctx context.Context) error {
			_, err := s.Decode(ctx, session, token)
			return err
		})
	}
	// settle waits for a call the script has already ended.
	settle := func(c *call) {
		t.Helper()
		select {
		case err := <-c.done:
			c.done <- err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never ended", c.name)
		}
	}
	// stepUntil steps until cond holds; the script never waits on an idle
	// scheduler.
	stepUntil := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if _, ok := s.Step(); !ok {
				t.Fatalf("scheduler ran dry before %s", what)
			}
		}
	}
	decoding := func(session int) func() bool {
		return func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, r := range s.decodes {
				if r.session == session {
					return true
				}
			}
			return false
		}
	}

	// KV capacity, with nothing in the prefix tree to evict: session 1's
	// first chunk fails, and session 2 is failed out of a fused decode step
	// that session 3 then finishes alone.
	f.full[1] = true
	prefill("capacity prefill", "failed", bg, 1, seq(1, 8), RequestOptions{})
	drain(s)
	delete(f.full, 1)
	generate("capacity decode", "failed", bg, 2, seq(10, 8), 6)
	gen3 := generate("survivor of the capacity decode", "served", bg, 3, seq(20, 8), 6)
	stepUntil("sessions 2 and 3 fuse", func() bool { return s.snapshot().LastDecodeBatch == 2 })
	f.full[2] = true
	drain(s)
	delete(f.full, 2)
	settle(gen3)

	// A decode fault with recovery armed is rebuilt and replayed, and the
	// step retried; the next one, with the budget of one recovery spent,
	// faults the step and quarantines the session.
	f.failDecode = errors.New("injected: rank 1 unreachable")
	decode("decode fault, recovered", "served", 3, 5)
	drain(s)
	f.failDecode = errors.New("injected: rank 1 unreachable")
	decode("decode fault, recovery spent", "failed", 3, 6)
	drain(s)

	// Session 4 is released while the executor is busy, so its drop waits;
	// the same id is admitted again meanwhile, and warm-starts from the
	// prefix the drop donates. Session 5 opts out of the prefix cache.
	prefill("release donor", "served", bg, 4, seq(30, 8), RequestOptions{})
	drain(s)
	hold, held := make(chan struct{}), make(chan struct{})
	go s.WithCluster(func(*transformer.Cluster) { close(held); <-hold })
	<-held
	released := make(chan struct{})
	go func() { s.Release(4); close(released) }()
	for s.Known(4) {
		time.Sleep(time.Millisecond)
	}
	prefill("same-id re-admission", "served", bg, 4, seq(30, 12), RequestOptions{})
	close(hold)
	<-released
	drain(s)
	prefill("no_cache session", "served", bg, 5, seq(40, 8), RequestOptions{NoPrefixCache: true})
	drain(s)
	s.Release(5)

	// A generate stream's client hangs up between decode steps, and a
	// prefill's timeout_ms deadline has passed before it runs.
	ctx, cancel := context.WithCancel(bg)
	gen6 := generate("client cancel", "canceled", ctx, 6, seq(50, 4), 8)
	stepUntil("session 6 decodes", decoding(6))
	cancel()
	settle(gen6)
	expired, stop := context.WithDeadline(bg, time.Now())
	defer stop()
	prefill("deadline", "deadline", expired, 7, seq(60, 3), RequestOptions{})

	// Sessions 4, 8 and 9 hold the three slots, so session 10 waits for
	// admission. The brownout verdict is refreshed as it queues; one window
	// later, with no execution in it, its age is the signal: session 11 is
	// rejected and session 10, queued past the SLO, is shed.
	prefill("slot holder", "served", bg, 8, seq(2, 4), RequestOptions{})
	prefill("slot holder", "served", bg, 9, seq(12, 4), RequestOptions{})
	drain(s)
	clk.advance(brownoutRefresh)
	prefill("queued admission", "shed", bg, 10, seq(22, 4), RequestOptions{})
	clk.advance(brownoutRefresh + 2*slo)
	// Rejected as it is submitted, so it is never queued.
	rejected := &call{name: "new session under brownout", want: "shed", done: make(chan error, 1)}
	_, err := s.PrefillWith(bg, 11, seq(32, 4), RequestOptions{})
	rejected.done <- err
	calls = append(calls, rejected)

	for _, id := range []int{4, 8, 9} {
		s.Release(id)
	}
	drain(s)

	for _, c := range calls {
		settle(c)
		if got := outcomeOf(<-c.done); got != c.want {
			t.Errorf("%s: outcome %s, want %s", c.name, got, c.want)
		}
	}
	if st := s.snapshot().Overload; st.DeadlineExpired != 1 || st.BrownoutShed != 2 {
		t.Errorf("overload stats %+v, want 1 deadline and 2 shed", st)
	}
	if rec := s.RecoveryStats(); rec.Rebuilds != 1 || rec.RecoveredSessions != 1 {
		t.Errorf("recovery stats %+v, want 1 rebuild recovering 1 session", rec)
	}

	s.mu.Lock()
	if len(s.sessions) != 0 || len(s.pendingDrops) != 0 || len(s.iter.completed) != 0 ||
		len(s.admit)+len(s.prefills)+len(s.decodes) != 0 {
		t.Errorf("at quiesce: %d session records, %d pending drops, %d unanswered, queues %d/%d/%d",
			len(s.sessions), len(s.pendingDrops), len(s.iter.completed), len(s.admit), len(s.prefills), len(s.decodes))
	}
	s.mu.Unlock()
	if len(f.lens) != 0 {
		t.Errorf("the executor still holds sequences %v", f.lens)
	}

	// Only clean releases (sessions 4, its successor, 8 and 9) and the
	// replay of session 3 donate: never a failed, quarantined, canceled or
	// opted-out session.
	donors := map[int]bool{3: true, 4: true, 8: true, 9: true}
	for _, c := range f.calls {
		if c.op == "detach" && !donors[c.session] {
			t.Errorf("session %d donated KV", c.session)
		}
	}
	// The tree holds exactly the donated canonical prefixes, whole blocks
	// from position 0: session 3's 8 tokens, the successor's 12 (which
	// extend its predecessor's 8), and 4 each for sessions 8 and 9.
	canonical := [][]int{seq(20, 8), seq(30, 12), seq(2, 4), seq(12, 4)}
	total := 0
	for _, p := range canonical {
		// A lookup leaves a prompt at least one token to prefill.
		if hit, _ := s.tree.Lookup(append(p, 0)); hit != len(p) {
			t.Errorf("the tree serves %d tokens of the donated prefix %v, want all %d", hit, p, len(p))
		}
		total += len(p)
	}
	if got := s.tree.Stats().Tokens; got != total {
		t.Errorf("the tree holds %d tokens, want the %d the donated prefixes hold: %s", got, total, fmt.Sprint(s.tree.Stats()))
	}
}
