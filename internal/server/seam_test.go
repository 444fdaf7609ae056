package server

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// These tests drive the real scheduler through its two seams — the cost
// executor at a fixed tick per command, wrapped in a recorder of what it was
// asked to do, and a clock that moves only when told to — in Manual mode.
// Nothing sleeps: requests are awaited on the scheduler's own condition
// variable and on their completion channels.

// execCall is one executor operation as the fake saw it. A fused decode
// batch is recorded as one call per member, so per-session projections of
// live (fused) and replayed (batch-of-one) sequences are comparable.
type execCall struct {
	op      string // prefill, decode, adopt, detach, drop, rebuild
	session int
	pos, n  int
	variant model.Variant
}

// fakeExec records every operation the scheduler asks of the cost executor.
// failDecode, when set, is returned (once) by the next DecodeNext before it
// touches any state: an infrastructure fault.
type fakeExec struct {
	*costExec
	calls      []execCall
	failDecode error
}

func (f *fakeExec) PrefillNext(seq int, tokens []int, v model.Variant) (int, error) {
	f.calls = append(f.calls, execCall{"prefill", seq, f.lens[seq], len(tokens), v})
	return f.costExec.PrefillNext(seq, tokens, v)
}

func (f *fakeExec) DecodeNext(seqs, tokens []int) ([]int, error) {
	if err := f.failDecode; err != nil {
		f.failDecode = nil
		f.clk.advance(f.perCmd)
		return nil, err
	}
	for _, seq := range seqs {
		f.calls = append(f.calls, execCall{"decode", seq, f.lens[seq], 1, model.PassQ})
	}
	return f.costExec.DecodeNext(seqs, tokens)
}

func (f *fakeExec) AdoptPrefix(seq int, pre *transformer.PrefixKV) error {
	err := f.costExec.AdoptPrefix(seq, pre)
	if err == nil {
		f.calls = append(f.calls, execCall{op: "adopt", session: seq, n: f.lens[seq]})
	}
	return err
}

func (f *fakeExec) DetachPrefix(seq, upTo int) (*transformer.PrefixKV, error) {
	h, err := f.costExec.DetachPrefix(seq, upTo)
	if err == nil {
		f.calls = append(f.calls, execCall{op: "detach", session: seq, n: upTo})
	}
	return h, err
}

func (f *fakeExec) Drop(seq int) {
	f.calls = append(f.calls, execCall{op: "drop", session: seq})
	f.costExec.Drop(seq)
}

func (f *fakeExec) Rebuild() error {
	f.calls = append(f.calls, execCall{op: "rebuild"})
	return f.costExec.Rebuild()
}

// seamModel has NH/NKV = 8, so Equation 1's pass-KV threshold is a miss rate
// of 0.25: with a budget of 4, chunks at positions 0..12 run pass-KV and
// later ones pass-Q.
var seamModel = model.Config{Name: "seam", NumHeads: 8, NumKV: 1, VocabSize: 64}

func newSeamScheduler(t *testing.T, cfg SchedulerConfig) (*Scheduler, *fakeExec, *virtualClock) {
	t.Helper()
	clk := &virtualClock{t: time.Unix(1_700_000_000, 0)}
	f := &fakeExec{costExec: newCostExec(clk, time.Millisecond, 0, 0, seamModel.VocabSize)}
	cfg.Manual = true
	s := newScheduler(f, seamModel, trace.New(), clk.Now, cfg)
	t.Cleanup(s.Close)
	return s, f, clk
}

// enqueue starts fn — a blocking scheduler call — and returns once its
// request is queued: submit signals s.cond after enqueueing, and in Manual
// mode this is the only waiter.
func enqueue(s *Scheduler, fn func()) {
	s.mu.Lock()
	seq := s.idSeq
	go fn()
	for s.idSeq == seq {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// generateAsync enqueues a Generate and returns a function that waits for it
// and hands back its tokens.
func generateAsync(t *testing.T, s *Scheduler, session int, prompt []int, maxTokens int) (wait func() []int) {
	t.Helper()
	type result struct {
		tokens []int
		err    error
	}
	done := make(chan result, 1)
	enqueue(s, func() {
		res, err := s.Generate(context.Background(), session, prompt, maxTokens)
		if err != nil {
			res = &GenerateResult{}
		}
		done <- result{res.Tokens, err}
	})
	return func() []int {
		t.Helper()
		r := <-done
		if r.err != nil {
			t.Fatalf("generate for session %d: %v", session, r.err)
		}
		return r.tokens
	}
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// TestSeamBrownoutTripsAndClears: brownout engages when the windowed p90
// queue wait crosses BrownoutSLO — at the first refresh after the slow
// window, not before — and disengages one brownoutRefresh window later, once
// the window's waits are fast again. The clock only moves where the test
// moves it.
func TestSeamBrownoutTripsAndClears(t *testing.T) {
	const slo = 50 * time.Millisecond
	s, _, clk := newSeamScheduler(t, SchedulerConfig{BrownoutSLO: slo, TokenBudget: 4})
	prefill := func(session int) <-chan error {
		done := make(chan error, 1)
		enqueue(s, func() {
			_, err := s.PrefillWith(context.Background(), session, []int{1, 2}, RequestOptions{})
			done <- err
		})
		return done
	}

	// Session 1 waits 2×SLO in the prefill queue before its chunk runs.
	d1 := prefill(1)
	clk.advance(2 * slo)
	drain(s)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	// Still inside the refresh window the healthy verdict was cached in:
	// the slow wait has been observed but not yet judged.
	d2 := prefill(2)
	drain(s)
	if err := <-d2; err != nil {
		t.Fatalf("admission before the refresh boundary: %v", err)
	}
	if s.OverloadStats().BrownoutActive {
		t.Fatal("brownout engaged before its refresh boundary")
	}

	// One refresh later the window's p90 is the 2×SLO wait: shed.
	clk.advance(brownoutRefresh)
	_, err := s.PrefillWith(context.Background(), 3, []int{1, 2}, RequestOptions{})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("admission with the windowed p90 over the SLO = %v, want OverloadError", err)
	}
	if st := s.OverloadStats(); !st.BrownoutActive || st.BrownoutShed != 1 {
		t.Fatalf("overload stats = %+v, want active with 1 shed", st)
	}

	// Resident work keeps running while browned out, and runs fast: the
	// next window holds only this zero-wait decode.
	dd := make(chan error, 1)
	enqueue(s, func() {
		_, err := s.Decode(context.Background(), 1, 5)
		dd <- err
	})
	drain(s)
	if err := <-dd; err != nil {
		t.Fatalf("resident decode under brownout: %v", err)
	}
	clk.advance(brownoutRefresh)
	d4 := prefill(4)
	drain(s)
	if err := <-d4; err != nil {
		t.Fatalf("admission one window after the waits recovered: %v", err)
	}
	if s.OverloadStats().BrownoutActive {
		t.Fatal("brownout still active one refresh window after the waits recovered")
	}
}

// TestSeamIterationClosure: with the clock advancing a fixed tick per
// executor call, an iteration's reported duration, its cp_step_seconds
// sample and the durations of its phase spans are one number, the phase
// spans tile the iteration, and every queue.wait span ends exactly where the
// chunk or batch it waited for starts — in single-phase and in mixed
// iterations.
func TestSeamIterationClosure(t *testing.T) {
	// FIFO, the scheduler's one admission order.
	t.Run("fifo", testIterationClosure)
}

func testIterationClosure(t *testing.T) {
	s, _, clk := newSeamScheduler(t, SchedulerConfig{TokenBudget: 4})
	d1 := generateAsync(t, s, 1, seq(1, 6), 6)
	var d2 func() []int
	mixed := 0
	for iter := 0; ; iter++ {
		if iter == 3 {
			// Session 1 is decoding by now; session 2's chunks share its
			// iterations, behind the older decode.
			d2 = generateAsync(t, s, 2, seq(20, 10), 3)
		}
		clk.advance(7 * time.Millisecond) // time passes between iterations too
		spansBefore := len(s.rec.Spans())
		stepBefore := s.hStep.Snap()
		began := clk.Now()
		rep, ok := s.Step()
		if !ok {
			break
		}
		durNs := int64(math.Round(rep.DurMs * 1e6))
		if got := clk.Now().Sub(began).Nanoseconds(); got != durNs {
			t.Fatalf("iter %d: DurMs says %d ns, the clock moved %d ns", iter, durNs, got)
		}
		stepAfter := s.hStep.Snap()
		if stepAfter.Count != stepBefore.Count+1 {
			t.Fatalf("iter %d: %d cp_step_seconds samples, want 1", iter, stepAfter.Count-stepBefore.Count)
		}
		if sample := stepAfter.Sum - stepBefore.Sum; math.Abs(sample*1e9-float64(durNs)) > 1 {
			t.Fatalf("iter %d: cp_step_seconds sample %v s, DurMs %v ms", iter, sample, rep.DurMs)
		}
		phase := map[string]trace.Span{} // queue.wait category -> the phase span it waited for
		var phases []trace.Span
		var waits []trace.Span
		for _, sp := range s.rec.Spans()[spansBefore:] {
			switch sp.Name {
			case "prefill.chunk":
				phase[string(ClassPrefill)] = sp
				phases = append(phases, sp)
			case "decode.batch":
				phase[string(ClassDecode)] = sp
				phases = append(phases, sp)
			case "queue.wait":
				waits = append(waits, sp)
			}
		}
		if len(phases) == 2 {
			mixed++
		}
		at, sum := began.UnixNano(), int64(0)
		for _, sp := range phases {
			if sp.Start != at {
				t.Fatalf("iter %d: %s starts at %d, previous boundary was %d", iter, sp.Name, sp.Start, at)
			}
			at += sp.Dur
			sum += sp.Dur
		}
		if sum != durNs {
			t.Fatalf("iter %d: phase spans sum to %d ns, iteration took %d ns", iter, sum, durNs)
		}
		if want := rep.Occupancy(); len(waits) != want {
			t.Fatalf("iter %d: %d queue.wait spans for %d sessions served", iter, len(waits), want)
		}
		for _, w := range waits {
			p, ok := phase[w.Cat]
			if !ok {
				t.Fatalf("iter %d: %s queue.wait with no phase span", iter, w.Cat)
			}
			if w.Start+w.Dur != p.Start {
				t.Fatalf("iter %d: %s queue.wait ends at %d, its %s starts at %d", iter, w.Cat, w.Start+w.Dur, p.Name, p.Start)
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no mixed iteration ran; the closure of the trailing phase went unchecked")
	}
	if toks := d1(); len(toks) != 6 {
		t.Fatalf("session 1 generated %d tokens, want 6", len(toks))
	}
	if toks := d2(); len(toks) != 3 {
		t.Fatalf("session 2 generated %d tokens, want 3", len(toks))
	}
}

// projection filters a call sequence down to the operations that place one
// session's KV, in order.
func projection(calls []execCall, session int) []execCall {
	var out []execCall
	for _, c := range calls {
		if c.session == session && (c.op == "prefill" || c.op == "decode" || c.op == "adopt") {
			out = append(out, c)
		}
	}
	return out
}

// TestSeamReplayRetracesLiveCalls: two sessions warm-start from a released
// donor's prefix, prefill the rest in budget-aligned chunks whose variant
// flips to pass-Q as the miss rate falls, and decode in fused batches. An
// injected infrastructure error then triggers recovery, and the replay asks
// the executor for exactly what the live path asked: the second session's
// sequence is repeated call for call (the first, replayed before it, has
// donated the shared prefix back), and the first session's — replayed onto
// an empty tree — is its live sequence with the adoption replaced by the
// very chunks the donor ran cold. Reuse and recovery counters agree with
// the calls, and the streams equal a never-faulted twin's.
func TestSeamReplayRetracesLiveCalls(t *testing.T) {
	shared := seq(1, 8)
	prompt := func(from int) []int { return append(append([]int(nil), shared...), seq(from, 14)...) }
	const donor, maxTokens = 10, 12

	run := func(fault bool) (s *Scheduler, f *fakeExec, faultAt int, streams [2][]int) {
		s, f, _ = newSeamScheduler(t, SchedulerConfig{TokenBudget: 4, Variant: model.Auto, Recover: true})
		dd := make(chan error, 1)
		enqueue(s, func() {
			_, err := s.PrefillWith(context.Background(), donor, prompt(40), RequestOptions{})
			dd <- err
		})
		drain(s)
		if err := <-dd; err != nil {
			t.Fatal(err)
		}
		s.Release(donor) // donates the donor's 20-token canonical prefix
		d1 := generateAsync(t, s, 1, prompt(11), maxTokens)
		d2 := generateAsync(t, s, 2, prompt(21), maxTokens)
		for len(s.LastIter().DecodeSessions) < 2 { // until both sessions share a fused step
			if _, ok := s.Step(); !ok {
				t.Fatal("scheduler ran dry before the sessions fused")
			}
		}
		faultAt = len(f.calls)
		if fault {
			f.failDecode = errors.New("injected: rank 1 unreachable")
		}
		drain(s)
		streams[0], streams[1] = d1(), d2()
		return s, f, faultAt, streams
	}

	_, _, _, want := run(false)
	s, f, faultAt, got := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streams after recovery differ from the never-faulted twin:\n got %v\nwant %v", got, want)
	}

	live := f.calls[:faultAt]
	rebuild := -1
	for i, c := range f.calls {
		if c.op == "rebuild" {
			rebuild = i
		}
	}
	if rebuild < faultAt {
		t.Fatalf("no rebuild after the fault (calls: %v)", f.calls[faultAt:])
	}
	replayed := f.calls[rebuild+1:]

	// What the live path did, per session. The shape is pinned so the test
	// cannot pass vacuously: a warm start, a variant flip, fused decodes.
	live2 := projection(live, 2)
	wantHead := []execCall{
		{"adopt", 2, 0, 8, 0},
		{"prefill", 2, 8, 4, model.PassKV},
		{"prefill", 2, 12, 4, model.PassKV},
		{"prefill", 2, 16, 4, model.PassQ},
		{"prefill", 2, 20, 2, model.PassQ},
		{"decode", 2, 22, 1, model.PassQ},
	}
	if len(live2) < len(wantHead) || !reflect.DeepEqual(live2[:len(wantHead)], wantHead) {
		t.Fatalf("session 2's live calls = %v, want them to begin %v", live2, wantHead)
	}
	// Session 1's KV was built by the donor's cold chunks below the adopted
	// boundary and by its own calls above it.
	var built1 []execCall
	for _, c := range projection(live, donor) {
		if c.pos+c.n <= len(shared) {
			c.session = 1
			built1 = append(built1, c)
		}
	}
	live1 := projection(live, 1)
	if live1[0] != (execCall{"adopt", 1, 0, 8, 0}) {
		t.Fatalf("session 1 began with %v, want the adoption of the shared prefix", live1[0])
	}
	built1 = append(built1, live1[1:]...)

	for _, tc := range []struct {
		session int
		want    []execCall
	}{{1, built1}, {2, live2}} {
		got := projection(replayed, tc.session)
		if len(got) < len(tc.want) || !reflect.DeepEqual(got[:len(tc.want)], tc.want) {
			t.Fatalf("session %d replayed as\n %v\nwant call for call\n %v", tc.session, got, tc.want)
		}
		// What follows the replay is live again: the step the fault
		// interrupted, retried at the position the replay restored.
		last := tc.want[len(tc.want)-1]
		if next := got[len(tc.want)]; next != (execCall{"decode", tc.session, last.pos + 1, 1, model.PassQ}) {
			t.Fatalf("session %d resumed with %v after replaying through position %d", tc.session, next, last.pos)
		}
	}

	// The counters tell the same story, by the live rule: a replayed hit
	// settles with its first miss-suffix chunk, exactly once.
	tokens := func(calls []execCall, op string) (n int64) {
		for _, c := range calls {
			if c.op == op {
				n += int64(c.n)
			}
		}
		return n
	}
	replay1, replay2 := built1, live2
	rec := s.RecoveryStats()
	wantComputed := tokens(replay1, "prefill") + tokens(replay1, "decode") + tokens(replay2, "prefill") + tokens(replay2, "decode")
	if rec.Rebuilds != 1 || rec.RecoveredSessions != 2 || rec.LostSessions != 0 ||
		rec.ReplayedTokens != wantComputed || rec.ReplayCachedTokens != tokens(replay2, "adopt") {
		t.Fatalf("recovery stats = %+v, want 1 rebuild, 2 recovered, %d replayed, %d replay-cached",
			rec, wantComputed, tokens(replay2, "adopt"))
	}
	reuse := s.Reuse()
	all := f.calls
	if reuse.Hits != 3 || reuse.CachedTokens != tokens(all, "adopt") || reuse.ComputedTokens != tokens(all, "prefill") {
		t.Fatalf("reuse = %+v, want 3 hits, %d cached, %d computed (live and replayed alike)",
			reuse, tokens(all, "adopt"), tokens(all, "prefill"))
	}
}

// resident reports whether the session has resident KV.
func resident(s *Scheduler, session int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prefilled[session]
}
