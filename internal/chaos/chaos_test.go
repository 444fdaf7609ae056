package chaos

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm/transport"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "slow@1->2#10:50ms*30;corrupt@0->1#120;partition@0,1|2#300;crash@2#500;drop@2->0#7;truncate@0->2#9;duplicate@1->0#11"
	s, err := Parse(spec, 3)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Faults) != 7 {
		t.Fatalf("got %d faults, want 7", len(s.Faults))
	}
	again, err := Parse(s.String(), 3)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip mismatch:\n  %#v\n  %#v", s, again)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"crash@5#0",           // rank outside world
		"drop@0->0#1",         // self link
		"drop@0->1",           // missing step
		"slow@0->1#3",         // slow without delay
		"slow@0->1#3:0ms",     // non-positive delay
		"partition@0|1#2",     // groups don't cover world
		"partition@0,1|1,2#2", // rank in both groups
		"partition@0,1,2#2",   // only one group
		"warp@0->1#2",         // unknown kind
		"corrupt@0->1#2:50ms", // params on a paramless kind
		"crash@1#-3",          // negative step
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 3); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestSoakDeterministic(t *testing.T) {
	a := Soak(42, 3, 300)
	b := Soak(42, 3, 300)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	kinds := map[Kind]bool{}
	for _, f := range a.Faults {
		kinds[f.Kind] = true
	}
	for _, k := range []Kind{KindSlow, KindCorrupt, KindPartition, KindCrash} {
		if !kinds[k] {
			t.Errorf("soak schedule missing %s: %s", k, a)
		}
	}
	if c := Soak(43, 3, 300); c.String() == a.String() {
		t.Errorf("different seeds produced identical schedules: %s", a)
	}
	// The schedule must survive its own grammar.
	if _, err := Parse(a.String(), 3); err != nil {
		t.Fatalf("Parse(Soak.String()): %v", err)
	}
}

// drive pushes n sends on src->dst through the wrapped transport, returning
// the per-send errors.
func drive(t *testing.T, tr transport.Transport, src, dst, n int) []error {
	t.Helper()
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		errs[i] = tr.Send(src, dst, i, time.Second)
		if errs[i] == nil {
			if _, err := tr.Recv(dst, src, time.Second); err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
		}
	}
	return errs
}

func TestDropFiresAtExactStep(t *testing.T) {
	sched, err := Parse("drop@0->1#3", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched)
	before := fired(KindDrop)
	wrapped, err := in.Wrap(transport.NewMem(2))
	if err != nil {
		t.Fatal(err)
	}
	errs := drive(t, wrapped, 0, 1, 6)
	for i, e := range errs[:3] {
		if e != nil {
			t.Errorf("send %d failed early: %v", i, e)
		}
	}
	for i, e := range errs[3:] {
		if !errors.Is(e, transport.ErrLinkFailed) {
			t.Errorf("send %d after drop: got %v, want ErrLinkFailed", i+3, e)
		}
	}
	if got := fired(KindDrop) - before; got != 1 {
		t.Errorf("drop count = %d, want 1 (one-shot)", got)
	}
}

func TestSlowDelaysWithoutFailing(t *testing.T) {
	sched, err := Parse("slow@0->1#2:5ms*3", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched)
	before := fired(KindSlow)
	wrapped, err := in.Wrap(transport.NewMem(2))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, e := range drive(t, wrapped, 0, 1, 8) {
		if e != nil {
			t.Fatalf("slow link must not fail sends: %v", e)
		}
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("8 sends took %v, want >= 15ms (3 x 5ms delays)", d)
	}
	if got := fired(KindSlow) - before; got != 3 {
		t.Errorf("slow count = %d, want 3 (span)", got)
	}
}

func TestCrashPoisonsRankUntilRewrap(t *testing.T) {
	sched, err := Parse("crash@0#2", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched)
	before := fired(KindCrash)
	mem := transport.NewMem(2)
	wrapped, err := in.Wrap(mem)
	if err != nil {
		t.Fatal(err)
	}
	errs := drive(t, wrapped, 0, 1, 4)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("pre-crash sends failed: %v %v", errs[0], errs[1])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(errs[i], transport.ErrLinkFailed) {
			t.Errorf("send %d on crashed rank: got %v, want ErrLinkFailed", i, errs[i])
		}
	}
	if _, err := wrapped.Recv(0, 1, 10*time.Millisecond); !errors.Is(err, transport.ErrLinkFailed) {
		t.Errorf("recv on crashed rank: got %v, want ErrLinkFailed", err)
	}
	// Rewrap = the respawned incarnation: the rank is alive again and the
	// one-shot crash does not re-fire.
	rewrapped, err := in.Wrap(transport.NewMem(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range drive(t, rewrapped, 0, 1, 4) {
		if e != nil {
			t.Errorf("post-rewrap send %d: %v", i, e)
		}
	}
	if got := fired(KindCrash) - before; got != 1 {
		t.Errorf("crash count = %d, want 1", got)
	}
}

func TestPartitionCutsCrossLinksOnly(t *testing.T) {
	sched, err := Parse("partition@0,1|2#1", 3)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched)
	before := fired(KindPartition)
	wrapped, err := in.Wrap(transport.NewMem(3))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's sends 0 and 1: the second crosses the firing step, cutting
	// 0->2 but leaving 0->1 alive.
	if err := wrapped.Send(0, 1, "a", time.Second); err != nil {
		t.Fatalf("send before partition: %v", err)
	}
	if err := wrapped.Send(0, 1, "b", time.Second); err != nil {
		t.Fatalf("same-side send at partition step: %v", err)
	}
	if err := wrapped.Send(0, 2, "c", time.Second); !errors.Is(err, transport.ErrLinkFailed) {
		t.Errorf("cross-partition send: got %v, want ErrLinkFailed", err)
	}
	if got := fired(KindPartition) - before; got != 1 {
		t.Errorf("partition count = %d, want 1", got)
	}
}

func TestStepCountsPersistAcrossWrap(t *testing.T) {
	sched, err := Parse("drop@0->1#5", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched)
	w1, err := in.Wrap(transport.NewMem(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range drive(t, w1, 0, 1, 3) {
		if e != nil {
			t.Fatalf("epoch-1 send: %v", e)
		}
	}
	// New incarnation: steps 3,4 pass, step 5 fires the drop.
	w2, err := in.Wrap(transport.NewMem(2))
	if err != nil {
		t.Fatal(err)
	}
	errs := drive(t, w2, 0, 1, 3)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("epoch-2 pre-drop sends: %v %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], transport.ErrLinkFailed) {
		t.Errorf("cumulative step 5: got %v, want ErrLinkFailed", errs[2])
	}
}

func TestByteFaultsRequireFrameTap(t *testing.T) {
	sched, err := Parse("corrupt@0->1#3", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Mem has no frame tap; a schedule with byte faults acting on a local
	// rank must fail loudly at Wrap, not skip the fault.
	if _, err := NewInjector(sched).Wrap(transport.NewMem(2)); err == nil {
		t.Fatal("Wrap accepted byte-level faults on a tapless transport")
	}
}

func TestTapFrameMutations(t *testing.T) {
	frame := make([]byte, 32)
	for i := range frame {
		frame[i] = byte(i)
	}
	cases := []struct {
		kind Kind
		want func(t *testing.T, out [][]byte)
	}{
		{KindCorrupt, func(t *testing.T, out [][]byte) {
			if len(out) != 1 || len(out[0]) != len(frame) {
				t.Fatalf("corrupt shape: %d frames", len(out))
			}
			diff := 0
			for i := range frame {
				if out[0][i] != frame[i] {
					diff++
				}
			}
			if diff != 1 {
				t.Errorf("corrupt changed %d bytes, want exactly 1", diff)
			}
		}},
		{KindTruncate, func(t *testing.T, out [][]byte) {
			if len(out) != 1 || len(out[0]) >= len(frame) {
				t.Fatalf("truncate did not shorten: %d frames, len %d", len(out), len(out[0]))
			}
		}},
		{KindDuplicate, func(t *testing.T, out [][]byte) {
			if len(out) != 2 || !reflect.DeepEqual(out[0], frame) || !reflect.DeepEqual(out[1], frame) {
				t.Fatalf("duplicate shape wrong: %d frames", len(out))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			in := NewInjector(&Schedule{Faults: []Fault{{Kind: tc.kind, Src: 0, Dst: 1, Step: 0, Span: 1}}})
			before := fired(tc.kind)
			// Advance the link clock the way Send would, then tap.
			in.beforeSend(transport.NewMem(2), 0, 1)
			tc.want(t, in.tapFrame(0, 1, frame))
			if got := fired(tc.kind) - before; got != 1 {
				t.Errorf("count = %d, want 1", got)
			}
			// One-shot: the next frame passes through untouched.
			in.beforeSend(transport.NewMem(2), 0, 1)
			if out := in.tapFrame(0, 1, frame); len(out) != 1 || !reflect.DeepEqual(out[0], frame) {
				t.Errorf("fault re-fired on later frame")
			}
		})
	}
}

// fired is how many faults of kind k this process has injected so far.
func fired(k Kind) int64 {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	return totals[k]
}
