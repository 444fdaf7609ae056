package comm

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSendRecvRing(t *testing.T) {
	// Classic ring: every rank sends its id around N-1 hops; after the loop
	// each rank must have seen every other rank's id exactly once.
	n := 4
	w := NewWorld(n)
	err := w.Run(func(r *Rank) error {
		next := (r.ID + 1) % n
		prev := (r.ID - 1 + n) % n
		cur := r.ID
		seen := []int{cur}
		for hop := 0; hop < n-1; hop++ {
			got, err := r.SendRecv(next, prev, cur, 8)
			if err != nil {
				return err
			}
			cur = got.(int)
			seen = append(seen, cur)
		}
		mask := 0
		for _, s := range seen {
			mask |= 1 << s
		}
		if mask != (1<<n)-1 {
			return fmt.Errorf("rank %d saw %v", r.ID, seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvByteAccounting(t *testing.T) {
	n := 3
	w := NewWorld(n)
	err := w.Run(func(r *Rank) error {
		next := (r.ID + 1) % n
		prev := (r.ID - 1 + n) % n
		for hop := 0; hop < n-1; hop++ {
			if _, err := r.SendRecv(next, prev, "x", 100); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := w.TotalStats()
	// Each of 3 ranks sends 2 messages of 100 bytes.
	if total.Messages[KindSendRecv] != 6 {
		t.Fatalf("sendrecv messages = %d, want 6", total.Messages[KindSendRecv])
	}
	if total.Bytes[KindSendRecv] != 600 {
		t.Fatalf("sendrecv bytes = %v, want 600", total.Bytes[KindSendRecv])
	}
}

func TestAll2All(t *testing.T) {
	n := 4
	w := NewWorld(n)
	err := w.Run(func(r *Rank) error {
		msgs := make([]any, n)
		sizes := make([]float64, n)
		for d := 0; d < n; d++ {
			msgs[d] = [2]int{r.ID, d} // (from, to)
			sizes[d] = 10
		}
		got, err := r.All2All(msgs, sizes)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			pair := got[src].([2]int)
			if pair[0] != src || pair[1] != r.ID {
				return fmt.Errorf("rank %d got %v from slot %d", r.ID, pair, src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// N*(N-1) network messages; the self slot is local.
	total := w.TotalStats()
	if total.Messages[KindAll2All] != int64(n*(n-1)) {
		t.Fatalf("all2all messages = %d, want %d", total.Messages[KindAll2All], n*(n-1))
	}
}

func TestAll2AllSizeMismatch(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		_, err := r.All2All(make([]any, 3), make([]float64, 2))
		if err == nil {
			return fmt.Errorf("mismatched all2all accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	n := 3
	w := NewWorld(n)
	err := w.Run(func(r *Rank) error {
		got, err := r.AllGather(r.ID*10, 4)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			if got[src].(int) != src*10 {
				return fmt.Errorf("rank %d gathered %v", r.ID, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailLink(t *testing.T) {
	w := NewWorld(2)
	w.FailLink(0, 1)
	err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			err := r.Send(1, "x", 1)
			if err == nil {
				return fmt.Errorf("send over failed link succeeded")
			}
			if !strings.Contains(err.Error(), "link 0->1 failed") {
				return fmt.Errorf("unexpected error %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.HealLink(0, 1)
	err = w.Run(func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, "x", 1)
		}
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatalf("healed link still failing: %v", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2)
	w.RecvTimeout = 50 * time.Millisecond
	err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			_, err := r.Recv(1) // rank 1 never sends
			if err == nil {
				return fmt.Errorf("recv from silent peer succeeded")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if err := r.Send(5, nil, 0); err == nil {
			return fmt.Errorf("send to invalid rank accepted")
		}
		if _, err := r.Recv(-1); err == nil {
			return fmt.Errorf("recv from invalid rank accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if r.ID == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestRunCollect(t *testing.T) {
	w := NewWorld(3)
	vals, err := RunCollect(w, func(r *Rank) (int, error) { return r.ID * r.ID, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals = %v", vals)
		}
	}
	_, err = RunCollect(w, func(r *Rank) (int, error) {
		if r.ID == 2 {
			return 0, fmt.Errorf("bad rank")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("RunCollect swallowed error")
	}
}

func TestResetStats(t *testing.T) {
	w := NewWorld(2)
	if err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, 1, 42)
		}
		_, err := r.Recv(0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if w.TotalStats().TotalBytes() != 42 {
		t.Fatal("bytes not accounted")
	}
	w.ResetStats()
	if w.TotalStats().TotalBytes() != 0 || w.TotalStats().TotalMessages() != 0 {
		t.Fatal("ResetStats left residue")
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			for i := 0; i < 3; i++ {
				if err := r.Send(1, i, 1); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 3; i++ {
			got, err := r.Recv(0)
			if err != nil {
				return err
			}
			if got.(int) != i {
				return fmt.Errorf("out of order: got %v want %d", got, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithRecvTimeoutOption(t *testing.T) {
	w := NewWorld(2, WithRecvTimeout(30*time.Millisecond))
	if w.RecvTimeout != 30*time.Millisecond {
		t.Fatalf("RecvTimeout = %v", w.RecvTimeout)
	}
	// The configured deadline governs receives: an empty mailbox times out
	// promptly instead of after DefaultRecvTimeout.
	start := time.Now()
	if _, err := w.Rank(0).Recv(1); err == nil {
		t.Fatal("recv on empty mailbox succeeded")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("recv waited %v despite 30ms configured timeout", waited)
	}
	// Non-positive overrides are ignored.
	if got := NewWorld(2, WithRecvTimeout(0)).RecvTimeout; got != DefaultRecvTimeout {
		t.Fatalf("zero timeout applied: %v", got)
	}
}

func TestLinkStatsPerDirectedLink(t *testing.T) {
	w := NewWorld(3)
	if err := w.Run(func(r *Rank) error {
		next := (r.ID + 1) % 3
		prev := (r.ID - 1 + 3) % 3
		if _, err := r.SendRecv(next, prev, "x", 100); err != nil {
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	links := w.LinkStats()
	if len(links) != 3 {
		t.Fatalf("links = %+v, want 3 directed ring links", links)
	}
	for _, l := range links {
		if l.Dst != (l.Src+1)%3 {
			t.Fatalf("unexpected link %d->%d", l.Src, l.Dst)
		}
		if l.Messages != 1 || l.Bytes != 100 {
			t.Fatalf("link %d->%d counted %d msgs / %v bytes", l.Src, l.Dst, l.Messages, l.Bytes)
		}
		// The mailbox transport never serializes: wire counters stay zero.
		if l.WireMsgs != 0 || l.WireBytes != 0 {
			t.Fatalf("in-memory link %d->%d reports wire traffic", l.Src, l.Dst)
		}
	}
	w.ResetStats()
	if got := w.LinkStats(); len(got) != 0 {
		t.Fatalf("ResetStats left link residue: %+v", got)
	}
}

// TestErrorTextNamesBothEndpoints pins the uniform src->dst error format on
// every receive and send path: rank attribution of race-job failures
// depends on it.
func TestErrorTextNamesBothEndpoints(t *testing.T) {
	w := NewWorld(2, WithRecvTimeout(30*time.Millisecond))
	if _, err := w.Rank(0).Recv(1); err == nil || !strings.Contains(err.Error(), "recv 1->0 timed out") {
		t.Fatalf("recv timeout error %q lacks src->dst", errStr(err))
	}
	if _, err := w.Rank(0).Recv(-1); err == nil || !strings.Contains(err.Error(), "recv -1->0") {
		t.Fatalf("recv range error %q lacks src->dst", errStr(err))
	}
	if err := w.Rank(0).Send(5, nil, 0); err == nil || !strings.Contains(err.Error(), "send 0->5") {
		t.Fatalf("send range error %q lacks src->dst", errStr(err))
	}
	w.FailLink(0, 1)
	if err := w.Rank(0).Send(1, nil, 0); err == nil || !strings.Contains(err.Error(), "link 0->1 failed") {
		t.Fatalf("failed-link error %q lacks src->dst", errStr(err))
	}
	// Fill the 1-capacity... mailbox capacity is n+1=3; overfill it.
	w.HealLink(0, 1)
	for i := 0; i < 3; i++ {
		if err := w.Rank(0).Send(1, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rank(0).Send(1, 99, 1); err == nil || !strings.Contains(err.Error(), "send 0->1 timed out") {
		t.Fatalf("send timeout error %q lacks src->dst", errStr(err))
	}
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
