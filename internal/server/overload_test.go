package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestDeadlineExpiredWhileQueued: a request whose timeout_ms deadline fires
// while it waits for admission gets its goroutine back with a
// DeadlineExceeded cause, maps to 504, and counts in the overload block.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{MaxSessions: 1})
	// Session 1 occupies the only admission slot.
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_, _ = s.PrefillWith(context.Background(), 1, []int{1, 2}, RequestOptions{})
	}()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done1

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Generate(ctx, 2, []int{3, 4}, 3)
		errCh <- err
	}()
	waitDepths(t, s, 1, 0, 0) // parked behind session 1
	var err error
	select {
	case err = <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("expired request still blocked")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error = %v, want DeadlineExceeded cause", err)
	}
	if got := statusFor(err); got != http.StatusGatewayTimeout {
		t.Fatalf("statusFor(deadline) = %d, want 504", got)
	}
	if st := s.OverloadStats(); st.DeadlineExpired != 1 {
		t.Fatalf("DeadlineExpired = %d, want 1", st.DeadlineExpired)
	}
	// A client hangup (plain cancel, no deadline) must NOT count as overload.
	ctx2, cancel2 := context.WithCancel(context.Background())
	errCh2 := make(chan error, 1)
	go func() {
		_, err := s.Generate(ctx2, 3, []int{5, 6}, 3)
		errCh2 <- err
	}()
	waitDepths(t, s, 1, 0, 0)
	cancel2()
	<-errCh2
	if st := s.OverloadStats(); st.DeadlineExpired != 1 {
		t.Fatalf("plain cancel counted as deadline expiry: %+v", st)
	}
}

// TestBrownoutShedsAndRejects: with the queue-wait SLO blown, a new-session
// admission is rejected with OverloadError (429 + Retry-After >= 1s), the
// backlog already past the SLO is shed, resident sessions are untouched, and
// the overload block reports it all.
func TestBrownoutShedsAndRejects(t *testing.T) {
	const slo = 50 * time.Millisecond
	s, _ := newManualScheduler(t, SchedulerConfig{MaxSessions: 1, BrownoutSLO: slo})
	clk := &virtualClock{t: time.Unix(1_700_000_000, 0)}
	s.now = clk.Now // before any request: the backlog ages only when stepped
	// Session 1 holds the slot — the resident work brownout must protect.
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_, _ = s.PrefillWith(context.Background(), 1, []int{1, 2}, RequestOptions{})
	}()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done1

	// Session 2 parks in the admission queue and ages past the SLO.
	errCh2 := make(chan error, 1)
	go func() {
		_, err := s.Generate(context.Background(), 2, []int{3, 4}, 3)
		errCh2 <- err
	}()
	waitDepths(t, s, 1, 0, 0)
	// Pin the quantile window to "no executions since the last refresh", the
	// wedged-loop signature, so the verdict comes from the deterministic
	// fallback — the age of the oldest queued admission — rather than from
	// session 1's historical (fast) admission. Session 2's own submit already
	// evaluated (and cached) a healthy verdict, so expire the cache too.
	s.mu.Lock()
	s.brownoutPrev = s.queueWaitSnapLocked()
	s.brownoutAt = time.Time{}
	s.mu.Unlock()
	clk.advance(2 * slo)

	// A new session now trips the brownout check inside submit: rejected
	// synchronously, no Step needed.
	_, err3 := s.Generate(context.Background(), 3, []int{5, 6}, 3)
	var oe *OverloadError
	if !errors.As(err3, &oe) {
		t.Fatalf("admission under brownout = %v, want OverloadError", err3)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s (header resolution floor)", oe.RetryAfter)
	}
	if got := statusFor(err3); got != http.StatusTooManyRequests {
		t.Fatalf("statusFor(overload) = %d, want 429", got)
	}
	// The aged backlog was shed with the same error.
	select {
	case err2 := <-errCh2:
		if !errors.As(err2, &oe) {
			t.Fatalf("shed backlog error = %v, want OverloadError", err2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backlog request not shed")
	}
	st := s.OverloadStats()
	if !st.BrownoutActive || st.BrownoutShed < 2 {
		t.Fatalf("overload stats = %+v, want active with >= 2 shed", st)
	}
	if st.BrownoutSLOSec != slo.Seconds() {
		t.Fatalf("BrownoutSLOSec = %v", st.BrownoutSLOSec)
	}
	// The resident session was never disturbed.
	if a, p, d := s.QueueDepths(); a != 0 || p != 0 || d != 0 {
		t.Fatalf("queues not clean after shed: %d/%d/%d", a, p, d)
	}
	if !s.Known(1) {
		t.Fatal("resident session lost to brownout")
	}
	stopStepping := stepInBackground(t, s)
	if _, err := s.Decode(context.Background(), 1, 1); err != nil {
		t.Fatalf("resident session's decode rejected under brownout: %v", err)
	}
	stopStepping()
}

// stepInBackground drives the manual scheduler from a goroutine until the
// returned stop function is called (also wired into test cleanup).
func stepInBackground(t *testing.T, s *Scheduler) (stop func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(stop)
	go func() {
		for {
			select {
			case <-ch:
				return
			default:
			}
			if _, ok := s.Step(); !ok {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return stop
}

// TestBrownoutDisabledByDefault: with no SLO configured the brownout check
// never trips, whatever the backlog looks like.
func TestBrownoutDisabledByDefault(t *testing.T) {
	s, _ := newManualScheduler(t, SchedulerConfig{MaxSessions: 1})
	clk := &virtualClock{t: time.Unix(1_700_000_000, 0)}
	s.now = clk.Now
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_, _ = s.PrefillWith(context.Background(), 1, []int{1, 2}, RequestOptions{})
	}()
	waitDepths(t, s, 0, 1, 0)
	drain(s)
	<-done1
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Generate(context.Background(), 2, []int{3, 4}, 2)
		errCh <- err
	}()
	waitDepths(t, s, 1, 0, 0)
	clk.advance(time.Minute)
	// Another admission queues instead of 429ing, no matter how long the
	// backlog has waited.
	errCh3 := make(chan error, 1)
	go func() {
		_, err := s.Generate(context.Background(), 3, []int{5, 6}, 2)
		errCh3 <- err
	}()
	waitDepths(t, s, 2, 0, 0)
	st := s.OverloadStats()
	if st.BrownoutActive || st.BrownoutShed != 0 || st.BrownoutSLOSec != 0 {
		t.Fatalf("brownout engaged while disabled: %+v", st)
	}
	// Free the slot; the backlog drains in order (each generate stays
	// resident after completing, so release between them).
	stepInBackground(t, s)
	for i, ch := range []chan error{errCh, errCh3} {
		s.Release(i + 1)
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("queued request failed after slot freed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued request never drained")
		}
	}
}

// TestWriteSchedErrRetryAfter pins the 429 wire shape: an OverloadError
// maps to 429 with a ceil-seconds Retry-After header (floored at 1) and
// counts in the overload block; other errors carry no header.
func TestWriteSchedErrRetryAfter(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.writeSchedErr(rec, &OverloadError{RetryAfter: 1500 * time.Millisecond})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want ceil(1.5s) = 2", got)
	}
	if st := srv.sched.OverloadStats(); st.RetryAfterIssued != 1 {
		t.Fatalf("RetryAfterIssued = %d, want 1", st.RetryAfterIssued)
	}
	rec = httptest.NewRecorder()
	srv.writeSchedErr(rec, context.DeadlineExceeded)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("504 carried Retry-After %q", got)
	}
}

// TestStatsOverloadBlocks: /v1/stats carries the integrity, chaos, and
// overload blocks with sane zero-state values on a healthy in-process
// server.
func TestStatsOverloadBlocks(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/generate", generateRequest{Session: 1, Prompt: []int{1, 2, 3}, MaxTokens: 2}, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Integrity struct {
			Checked  int64 `json:"frames_checked"`
			Rejected int64 `json:"frames_rejected"`
		} `json:"integrity"`
		Chaos struct {
			Injected int64 `json:"injected_total"`
		} `json:"chaos"`
		Overload OverloadStats `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// In-process transport frames nothing, injects nothing, sheds nothing —
	// but the blocks must be present and well-formed (zero, not garbage).
	if st.Integrity.Rejected != 0 || st.Chaos.Injected != 0 {
		t.Fatalf("healthy in-process server reports corruption/chaos: %+v", st)
	}
	if st.Overload.BrownoutActive || st.Overload.BrownoutShed != 0 || st.Overload.DeadlineExpired != 0 {
		t.Fatalf("healthy server reports overload: %+v", st.Overload)
	}
}
