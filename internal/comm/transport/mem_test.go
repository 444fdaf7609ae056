package transport

import (
	"errors"
	"testing"
	"time"
)

// A Recv that finds its payload waiting, and the Send that put it there,
// must not arm a timer: the fast path allocates nothing.
func TestMemReadyHopAllocatesNothing(t *testing.T) {
	m := NewMem(2)
	defer m.Close()
	var payload any = &struct{ n int }{7}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Send(0, 1, payload, time.Second); err != nil {
			t.Fatal(err)
		}
		got, err := m.Recv(1, 0, time.Second)
		if err != nil || got != payload {
			t.Fatalf("Recv = %v, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ready Send+Recv allocated %v objects per hop, want 0", allocs)
	}
}

// The slow paths keep their semantics: an empty mailbox times out with
// ErrTimeout, a full one with ErrTimeout wrapped as a link failure, a failed
// link refuses at once, and a blocked Recv still wakes for a late Send.
func TestMemSlowPathSemantics(t *testing.T) {
	m := NewMem(2)
	defer m.Close()
	if _, err := m.Recv(1, 0, 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty Recv = %v, want ErrTimeout", err)
	}
	for i := 0; i < cap(m.boxes[1][0]); i++ {
		if err := m.Send(0, 1, i, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Send(0, 1, -1, 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("full Send = %v, want ErrTimeout", err)
	}
	m.FailLink(0, 1)
	if err := m.Send(0, 1, -1, time.Second); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("failed-link Send = %v, want ErrLinkFailed", err)
	}
	done := make(chan any, 1)
	go func() {
		v, _ := m.Recv(0, 1, 5*time.Second)
		done <- v
	}()
	time.Sleep(10 * time.Millisecond) // usually lets the receiver reach its timed wait; the check holds either way
	if err := m.Send(1, 0, "late", time.Second); err != nil {
		t.Fatal(err)
	}
	if v := <-done; v != "late" {
		t.Fatalf("blocked Recv woke with %v", v)
	}
}

// Recv delivers whenever the payload lands: while the receiver is still
// polling its empty box (a sender released the moment the receiver starts),
// after it has armed its timer and parked (a sender well past the poll
// budget), and not at all — then the timeout is honoured in full, neither
// cut short by the poll nor stretched by it.
func TestMemRecvPollThenPark(t *testing.T) {
	m := NewMem(2)
	defer m.Close()
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"during the poll", 0},
		{"after the park", 100 * recvPollBudget},
	} {
		for i := 0; i < 50; i++ {
			started := make(chan struct{})
			errc := make(chan error, 1)
			go func() {
				<-started
				time.Sleep(tc.delay)
				errc <- m.Send(0, 1, i, time.Second)
			}()
			close(started)
			got, err := m.Recv(1, 0, 5*time.Second)
			if err != nil || got != i {
				t.Fatalf("%s, round %d: Recv = %v, %v", tc.name, i, got, err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, timeout := range []time.Duration{recvPollBudget / 5, 20 * time.Millisecond} {
		start := time.Now()
		_, err := m.Recv(1, 0, timeout)
		if elapsed := time.Since(start); !errors.Is(err, ErrTimeout) || elapsed < timeout || elapsed > timeout+time.Second {
			t.Fatalf("empty Recv(%v) = %v after %v", timeout, err, elapsed)
		}
	}
}

// A link failed while its receiver is polling surfaces as it always has on
// the mailbox: the fault is send-side, so the receive runs into its timeout
// (comm reports that with the link's name), the event reaches Failures, and
// the next Send on the link is refused.
func TestMemFailLinkWhileReceiverPolls(t *testing.T) {
	m := NewMem(2)
	defer m.Close()
	const timeout = 30 * time.Millisecond
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := m.Recv(1, 0, timeout)
		done <- err
	}()
	<-started
	m.FailLink(0, 1)
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv on a link failed mid-poll = %v, want ErrTimeout", err)
	}
	select {
	case ev := <-m.Failures():
		if ev.Peer != 1 {
			t.Fatalf("failure event names peer %d, want 1", ev.Peer)
		}
	default:
		t.Fatal("no failure event for the injected fault")
	}
	if err := m.Send(0, 1, "x", time.Second); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("Send on the failed link = %v, want ErrLinkFailed", err)
	}
}

// BenchmarkMailboxHandoff is the measurement recvPollBudget's comment cites:
// one round trip (two hops) between two goroutines that answer each other at
// once, the shape of a decode ring hop. "park" receives the way Recv did
// before it polled — an empty box arms a timer and parks, so every hop is a
// futex wake and a scheduler pass — and "poll" is Recv.
func BenchmarkMailboxHandoff(b *testing.B) {
	park := func(m *Mem, dst, src int) (any, error) {
		t := time.NewTimer(time.Second)
		defer t.Stop()
		select {
		case v := <-m.boxes[dst][src]:
			return v, nil
		case <-t.C:
			return nil, ErrTimeout
		}
	}
	poll := func(m *Mem, dst, src int) (any, error) { return m.Recv(dst, src, time.Second) }
	for _, mode := range []struct {
		name string
		recv func(m *Mem, dst, src int) (any, error)
	}{{"park", park}, {"poll", poll}} {
		b.Run(mode.name, func(b *testing.B) {
			m := NewMem(2)
			defer m.Close()
			var payload any = &struct{ n int }{7}
			echoErr := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, err := mode.recv(m, 1, 0); err != nil {
						echoErr <- err
						return
					}
					if err := m.Send(1, 0, payload, time.Second); err != nil {
						echoErr <- err
						return
					}
				}
				echoErr <- nil
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Send(0, 1, payload, time.Second); err != nil {
					b.Fatal(err)
				}
				if _, err := mode.recv(m, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-echoErr; err != nil {
				b.Fatal(err)
			}
		})
	}
}
