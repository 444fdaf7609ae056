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
