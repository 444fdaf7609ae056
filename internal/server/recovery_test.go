package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transformer"
)

// recoverySchedulers builds a victim scheduler (manual mode, recovery
// armed) and an identical unfailed reference.
func recoverySchedulers(t *testing.T, seed int64, recover bool) (victim, ref *Scheduler) {
	t.Helper()
	cfg := transformer.Tiny(seed)
	mk := func(rec bool) *Scheduler {
		w, err := transformer.NewWeights(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Short receive timeout so an injected link fault surfaces in
		// milliseconds instead of the 10s default; never fires when healthy.
		c, err := transformer.NewCluster(w, 2, transformer.WithRecvTimeout(300*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return NewScheduler(c, SchedulerConfig{
			TokenBudget: 8, MaxTokens: 1 << 16, Manual: true,
			Recover: rec, MaxRecoveries: 3,
		})
	}
	return mk(recover), mk(false)
}

// drive steps a manual scheduler until cond holds.
func driveUntil(t *testing.T, s *Scheduler, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out driving scheduler: %s", what)
		}
		if _, ok := s.Step(); !ok {
			time.Sleep(time.Millisecond)
		}
	}
}

// sharedPrompts returns two prompts sharing a 16-token (2-block) prefix
// with distinct 8-token suffixes — sized so every chunk is full-budget and
// the whole prompt is canonical.
func sharedPrompts(vocab int) ([]int, []int) {
	shared := make([]int, 16)
	for i := range shared {
		shared[i] = (i*5 + 2) % vocab
	}
	a := append(append([]int(nil), shared...), make([]int, 8)...)
	b := append(append([]int(nil), shared...), make([]int, 8)...)
	for i := 0; i < 8; i++ {
		a[16+i] = (i*3 + 7) % vocab
		b[16+i] = (i*11 + 1) % vocab
	}
	return a, b
}

// TestRecoveryInProcessFaultInjection is the serving half of the recovery
// acceptance test, in-process fault-injection form: a link fault mid-stream
// triggers an epoch rebuild and token-log replay; both in-flight generate
// streams complete bit-identically to an unfailed reference; and the replay
// demonstrably served the sessions' shared prefix from the prefix tree
// (prefill_source moves, replay_cached_tokens > 0).
func TestRecoveryInProcessFaultInjection(t *testing.T) {
	victim, ref := recoverySchedulers(t, 41, true)
	defer victim.Close()
	defer ref.Close()
	vocab := victim.cluster.W.Cfg.Model.VocabSize
	promptA, promptB := sharedPrompts(vocab)
	const maxTokens = 24

	// Reference streams, no failure.
	refDone := make(chan struct{})
	var refA, refB *GenerateResult
	go func() {
		defer close(refDone)
		var err error
		if refA, err = ref.Generate(context.Background(), 1, promptA, maxTokens); err != nil {
			t.Errorf("ref generate A: %v", err)
		}
		if refB, err = ref.Generate(context.Background(), 2, promptB, maxTokens); err != nil {
			t.Errorf("ref generate B: %v", err)
		}
	}()
	driveUntil(t, ref, "reference streams", func() bool {
		select {
		case <-refDone:
			return true
		default:
			return false
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// Victim: both streams in flight, then a link dies mid-decode.
	type result struct {
		res *GenerateResult
		err error
	}
	resA := make(chan result, 1)
	resB := make(chan result, 1)
	go func() {
		res, err := victim.Generate(context.Background(), 1, promptA, maxTokens)
		resA <- result{res, err}
	}()
	go func() {
		res, err := victim.Generate(context.Background(), 2, promptB, maxTokens)
		resB <- result{res, err}
	}()
	driveUntil(t, victim, "both streams into decode", func() bool {
		return victim.BatchStats().DecodeTokens >= 6
	})
	victim.WithCluster(func(c *transformer.Cluster) { c.FailLink(0, 1) })
	var gotA, gotB result
	haveA, haveB := false, false
	driveUntil(t, victim, "streams complete through recovery", func() bool {
		// Never block in the condition: the driver must keep stepping until
		// BOTH streams finish, in whichever order they land.
		if !haveA {
			select {
			case gotA = <-resA:
				haveA = true
			default:
			}
		}
		if !haveB {
			select {
			case gotB = <-resB:
				haveB = true
			default:
			}
		}
		return haveA && haveB
	})
	if gotA.err != nil || gotB.err != nil {
		t.Fatalf("streams faulted despite recovery: A=%v B=%v", gotA.err, gotB.err)
	}

	// Bit-identity against the unfailed reference.
	for name, pair := range map[string][2]*GenerateResult{"A": {refA, gotA.res}, "B": {refB, gotB.res}} {
		want, got := pair[0], pair[1]
		if len(want.Tokens) != len(got.Tokens) {
			t.Fatalf("stream %s: %d vs %d tokens", name, len(want.Tokens), len(got.Tokens))
		}
		for i := range want.Tokens {
			if want.Tokens[i] != got.Tokens[i] {
				t.Fatalf("stream %s diverges at step %d: %v vs %v", name, i, want.Tokens, got.Tokens)
			}
		}
	}

	rec := victim.RecoveryStats()
	if !rec.Enabled || rec.Rebuilds < 1 || rec.Attempts < 1 {
		t.Fatalf("recovery did not run: %+v", rec)
	}
	if rec.Epoch < 2 {
		t.Fatalf("cluster epoch %d after recovery, want >= 2", rec.Epoch)
	}
	if rec.RecoveredSessions < 2 || rec.LostSessions != 0 {
		t.Fatalf("recovered/lost = %d/%d, want 2/0", rec.RecoveredSessions, rec.LostSessions)
	}
	if rec.ReplayedTokens == 0 {
		t.Fatal("recovery replayed zero tokens")
	}
	// The warm-replay guarantee: the second session's shared 16-token
	// prefix came from the prefix tree, not recomputation — visible both in
	// the recovery block and in prefill_source's cached counter.
	if rec.ReplayCachedTokens < 16 {
		t.Fatalf("replay served %d tokens from the prefix tree, want >= 16", rec.ReplayCachedTokens)
	}
	if reuse := victim.Reuse(); reuse.CachedTokens < 16 {
		t.Fatalf("prefill_source cached_tokens = %d after warm replay, want >= 16", reuse.CachedTokens)
	}
}

// TestRecoveryDisabledPreservesFaulting pins the recovery-off contract: the
// same failure faults the in-flight batch with an ExecError and quarantines
// the sessions, exactly as before the subsystem existed.
func TestRecoveryDisabledPreservesFaulting(t *testing.T) {
	_, s := recoverySchedulers(t, 43, false) // the "reference" here is recovery-off
	defer s.Close()
	vocab := s.cluster.W.Cfg.Model.VocabSize
	promptA, _ := sharedPrompts(vocab)
	res := make(chan error, 1)
	go func() {
		_, err := s.Generate(context.Background(), 1, promptA, 1<<10)
		res <- err
	}()
	driveUntil(t, s, "stream into decode", func() bool {
		return s.BatchStats().DecodeTokens >= 2
	})
	s.WithCluster(func(c *transformer.Cluster) { c.FailLink(0, 1) })
	var err error
	driveUntil(t, s, "stream faults", func() bool {
		select {
		case err = <-res:
			return true
		default:
			return false
		}
	})
	var execErr *ExecError
	if !errors.As(err, &execErr) {
		t.Fatalf("recovery-off failure = %v, want ExecError", err)
	}
	if resident(s, 1) {
		t.Fatal("faulted session still active (not quarantined)")
	}
	if rec := s.RecoveryStats(); rec.Enabled || rec.Rebuilds != 0 {
		t.Fatalf("recovery ran while disabled: %+v", rec)
	}
}

// startWorkers spins up single-shot (non-rejoin) worker goroutines for the
// budget test: once shut down they stay gone, so a rebuild has nothing to
// dial.
func startWorkers(t *testing.T, cfg transformer.Config, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = transformer.RunWorker(transformer.WorkerConfig{
				Transformer: cfg, Rank: i, World: n,
				Listener: lns[i], Addrs: addrs,
				RendezvousTimeout: 20 * time.Second,
			})
		}(i)
	}
	t.Cleanup(wg.Wait)
	return addrs
}

// TestRecoveryBudgetExhausted: when the workers never come back, recovery
// burns its bounded attempts and then faults the sessions — lost, counted,
// and surfaced as ExecErrors — instead of retrying forever.
func TestRecoveryBudgetExhausted(t *testing.T) {
	cfg := transformer.Tiny(47)
	addrs := startWorkers(t, cfg, 2)
	w, err := transformer.NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := transformer.ConnectCluster(w, transformer.ConnectConfig{
		Addrs:       addrs,
		DialTimeout: time.Second, // rebuild dials fail fast: nobody listens
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cluster, SchedulerConfig{
		TokenBudget: 8, Manual: true, Recover: true, MaxRecoveries: 1,
	})
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := s.Generate(context.Background(), 1, []int{1, 2, 3, 4, 5}, 3)
		done <- err
	}()
	driveUntil(t, s, "healthy generate", func() bool {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("healthy generate: %v", err)
			}
			return true
		default:
			return false
		}
	})

	// Kill the whole worker fleet out from under the scheduler; they are
	// single-shot workers, so the rebuild's redial finds nothing.
	s.WithCluster(func(c *transformer.Cluster) { c.Close() })
	decodeErr := make(chan error, 1)
	go func() {
		_, err := s.Decode(context.Background(), 1, 7)
		decodeErr <- err
	}()
	var err2 error
	driveUntil(t, s, "decode through failed recovery", func() bool {
		select {
		case err2 = <-decodeErr:
			return true
		default:
			return false
		}
	})
	if err2 == nil {
		t.Fatal("decode succeeded over a dead, unrecoverable cluster")
	}
	if !strings.Contains(err2.Error(), "lost in recovery") {
		t.Fatalf("decode error = %v, want lost-in-recovery", err2)
	}
	rec := s.RecoveryStats()
	if rec.Attempts != 1 || rec.Rebuilds != 0 {
		t.Fatalf("attempts/rebuilds = %d/%d, want 1/0", rec.Attempts, rec.Rebuilds)
	}
	if rec.LostSessions != 1 {
		t.Fatalf("lost sessions = %d, want 1", rec.LostSessions)
	}
	if rec.LastError == "" {
		t.Fatal("no last_error recorded")
	}
	if resident(s, 1) {
		t.Fatal("lost session still active")
	}
}

// TestRecoveryReapsCanceledSessions pins the reap-before-replay contract: a
// request whose client hung up while an iteration held the claim (the
// canceled mark set, the boundary abort not yet run) must be completed and
// its session excluded from the replay set when a recovery fires — the
// rebuild must not spend prefill work resurrecting a stream nobody reads.
func TestRecoveryReapsCanceledSessions(t *testing.T) {
	victim, ref := recoverySchedulers(t, 53, true)
	defer victim.Close()
	defer ref.Close()
	vocab := victim.cluster.W.Cfg.Model.VocabSize
	promptA, promptB := sharedPrompts(vocab)
	const maxTokens = 24

	// Reference stream for session 1 only — session 2 will be abandoned.
	refDone := make(chan struct{})
	var refA *GenerateResult
	go func() {
		defer close(refDone)
		var err error
		if refA, err = ref.Generate(context.Background(), 1, promptA, maxTokens); err != nil {
			t.Errorf("ref generate: %v", err)
		}
	}()
	driveUntil(t, ref, "reference stream", func() bool {
		select {
		case <-refDone:
			return true
		default:
			return false
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	resA := make(chan error, 1)
	resB := make(chan error, 1)
	var gotA *GenerateResult
	go func() {
		var err error
		gotA, err = victim.Generate(context.Background(), 1, promptA, maxTokens)
		resA <- err
	}()
	go func() {
		_, err := victim.Generate(context.Background(), 2, promptB, maxTokens)
		resB <- err
	}()
	driveUntil(t, victim, "both streams into decode", func() bool {
		return victim.BatchStats().DecodeTokens >= 6
	})

	// Simulate the claimed-cancel window: the disconnect fired while an
	// iteration held session 2's request, so cancelQueued could only set the
	// mark — then a failure schedules recovery before any boundary abort runs.
	victim.mu.Lock()
	marked := false
	for _, r := range victim.decodes {
		if r.session == 2 {
			r.canceled = true
			r.cancelCause = context.Canceled
			marked = true
		}
	}
	if marked {
		victim.scheduleRecoveryLocked(errors.New("test: injected failure"))
	}
	victim.mu.Unlock()
	if !marked {
		t.Fatal("session 2 had no queued decode request to mark")
	}

	// Session 2's goroutine gets its cancellation back (via the reap), and
	// session 1 completes bit-identically through the rebuild.
	var errA, errB error
	haveA, haveB := false, false
	driveUntil(t, victim, "reap and replay complete", func() bool {
		if !haveA {
			select {
			case errA = <-resA:
				haveA = true
			default:
			}
		}
		if !haveB {
			select {
			case errB = <-resB:
				haveB = true
			default:
			}
		}
		return haveA && haveB
	})
	if !errors.Is(errB, context.Canceled) {
		t.Fatalf("reaped request error = %v, want Canceled cause", errB)
	}
	if errA != nil {
		t.Fatalf("surviving stream faulted: %v", errA)
	}
	if len(gotA.Tokens) != len(refA.Tokens) {
		t.Fatalf("stream lengths %d vs %d", len(gotA.Tokens), len(refA.Tokens))
	}
	for i := range refA.Tokens {
		if gotA.Tokens[i] != refA.Tokens[i] {
			t.Fatalf("stream diverges at %d: %v vs %v", i, gotA.Tokens, refA.Tokens)
		}
	}

	rec := victim.RecoveryStats()
	if rec.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", rec.Rebuilds)
	}
	// Exactly one session replayed: the reaped one must not be resurrected —
	// and it is gone from admission, not quarantine-limbo.
	if rec.RecoveredSessions != 1 || rec.LostSessions != 0 {
		t.Fatalf("recovered/lost = %d/%d, want 1/0", rec.RecoveredSessions, rec.LostSessions)
	}
	driveUntil(t, victim, "reaped session evicted", func() bool {
		return !victim.Known(2)
	})
}
