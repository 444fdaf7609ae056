package transport

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm/wire"
	"repro/internal/tensor"
)

// loopbackMesh forms an n-rank TCP mesh on 127.0.0.1 with pre-bound :0
// listeners (no port races) and returns the transports. tune, if any, edits
// each rank's config before it joins.
func loopbackMesh(t *testing.T, n int, configSum uint64, tune ...func(*TCPConfig)) []*TCP {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	out := make([]*TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := TCPConfig{
				World: n, Rank: i, Addrs: addrs, Listener: lns[i],
				ConfigSum: configSum, RendezvousTimeout: 10 * time.Second,
			}
			for _, f := range tune {
				f(&cfg)
			}
			tp, _, err := Join(cfg)
			out[i], errs[i] = tp, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tp := range out {
			if tp != nil {
				tp.Close()
			}
		}
	})
	return out
}

func TestTCPMeshSendRecv(t *testing.T) {
	n := 3
	mesh := loopbackMesh(t, n, 0x1234)
	// Ring hop: every rank sends a tagged payload to next, receives from prev.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			next, prev := (i+1)%n, (i-1+n)%n
			if err := mesh[i].Send(i, next, []int{i * 10}, time.Second); err != nil {
				errs[i] = err
				return
			}
			v, err := mesh[i].Recv(i, prev, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			got := v.([]int)
			if len(got) != 1 || got[0] != prev*10 {
				errs[i] = fmt.Errorf("rank %d got %v from %d", i, got, prev)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	// Wire counters saw the traffic (heartbeats may add more).
	links := mesh[0].WireLinks()
	if len(links) != 2*(n-1) {
		t.Fatalf("rank 0 has %d link stats, want %d", len(links), 2*(n-1))
	}
	var sent int64
	for _, l := range links {
		if l.Src == 0 {
			sent += l.WireBytes
		}
	}
	if sent == 0 {
		t.Fatal("no wire bytes counted on rank 0's outgoing links")
	}
}

func TestTCPFIFOOrdering(t *testing.T) {
	mesh := loopbackMesh(t, 2, 7)
	const k = 50
	done := make(chan error, 1)
	go func() {
		for i := 0; i < k; i++ {
			if err := mesh[0].Send(0, 1, []int{i}, time.Second); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < k; i++ {
		v, err := mesh[1].Recv(1, 0, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.([]int)[0]; got != i {
			t.Fatalf("out of order: got %d want %d", got, i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Waiting is what the ring's hidden-step count reads: whether a data frame
// from src is already in the inbox. Heartbeats are dropped before the inbox,
// so a link that carries only heartbeats never reports one waiting.
func TestTCPWaiting(t *testing.T) {
	// Fast heartbeats, with read-side liveness off so a stalled test host
	// cannot down the link.
	const every = 5 * time.Millisecond
	mesh := loopbackMesh(t, 2, 7, func(c *TCPConfig) { c.HeartbeatEvery, c.HeartbeatMisses = every, -1 })
	if mesh[1].Waiting(1, 0) {
		t.Fatal("empty link reports a frame waiting")
	}
	inFrames := func() int64 {
		for _, l := range mesh[1].WireLinks() {
			if l.Src == 0 {
				return l.WireMsgs
			}
		}
		return 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for inFrames() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d heartbeats arrived", inFrames())
		}
		if mesh[1].Waiting(1, 0) {
			t.Fatal("heartbeats alone report a frame waiting")
		}
		time.Sleep(every)
	}
	if err := mesh[0].Send(0, 1, []int{3}, time.Second); err != nil {
		t.Fatal(err)
	}
	for !mesh[1].Waiting(1, 0) {
		if time.Now().After(deadline) {
			t.Fatal("a sent data frame never showed as waiting")
		}
		time.Sleep(time.Millisecond)
	}
	if v, err := mesh[1].Recv(1, 0, time.Second); err != nil || v.([]int)[0] != 3 {
		t.Fatalf("Recv = %v, %v", v, err)
	}
	if mesh[1].Waiting(1, 0) {
		t.Fatal("link still reports a frame waiting after Recv drained it")
	}
}

func TestTCPInjectedLinkFailure(t *testing.T) {
	mesh := loopbackMesh(t, 2, 7)
	mesh[0].FailLink(0, 1)
	err := mesh[0].Send(0, 1, nil, time.Second)
	if !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("send over injected-failed link: %v", err)
	}
	mesh[0].HealLink(0, 1)
	if err := mesh[0].Send(0, 1, []int{1}, time.Second); err != nil {
		t.Fatalf("healed link: %v", err)
	}
	if _, err := mesh[1].Recv(1, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	mesh := loopbackMesh(t, 2, 7)
	start := time.Now()
	_, err := mesh[0].Recv(0, 1, 100*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv from silent peer: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v", waited)
	}
}

// TestTCPPeerDeath checks the failure semantics the ring relies on: when a
// peer process dies (here: its transport closes), pending and future
// receives fail with a link error quickly — not a silent hang — and
// buffered frames are still drained first.
func TestTCPPeerDeath(t *testing.T) {
	mesh := loopbackMesh(t, 2, 7)
	// Rank 1 sends one frame, then dies.
	if err := mesh[1].Send(1, 0, []int{42}, time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the frame land in rank 0's inbox before the peer dies.
	deadlineOK := false
	for i := 0; i < 100; i++ {
		if v, err := mesh[0].Recv(0, 1, 100*time.Millisecond); err == nil {
			if v.([]int)[0] != 42 {
				t.Fatalf("got %v", v)
			}
			deadlineOK = true
			break
		}
	}
	if !deadlineOK {
		t.Fatal("buffered frame never arrived")
	}
	mesh[1].Close()
	// The reader notices the closed conn; recv fails with a link error well
	// before a long timeout.
	start := time.Now()
	_, err := mesh[0].Recv(0, 1, 30*time.Second)
	if !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("recv from dead peer: %v", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("dead-peer recv took %v, want fast failure", waited)
	}
	// Sends to the dead peer fail too (possibly after one buffered write).
	var sendErr error
	for i := 0; i < 50 && sendErr == nil; i++ {
		sendErr = mesh[0].Send(0, 1, []int{i}, 200*time.Millisecond)
		time.Sleep(20 * time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("sends to dead peer kept succeeding")
	}
}

// TestTCPVersionMismatchRejected covers the handshake gate: a dialer with
// the wrong protocol version or config digest is refused with a named
// reason at rendezvous.
func TestTCPVersionMismatchRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:1"} // rank 1 never joins
	joinErr := make(chan error, 1)
	go func() {
		_, _, err := Join(TCPConfig{
			World: 2, Rank: 0, Addrs: addrs, Listener: ln,
			ConfigSum: 1, RendezvousTimeout: 5 * time.Second,
		})
		joinErr <- err
	}()
	// A peer whose Hello doesn't even decode (a different wire-protocol
	// version changes frame layouts) gets a named Ack rejection — Ack's
	// encoding is version-stable — instead of a silent hangup that would
	// retry into a rendezvous timeout. This does not abort the rendezvous.
	garbled, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer garbled.Close()
	// A syntactically valid frame (length prefix + Hello type id) whose
	// body is truncated relative to the current Hello layout.
	if _, err := garbled.Write([]byte{3, 0, 0, 0, 6, 1, 2}); err != nil {
		t.Fatal(err)
	}
	v0, _, err := wire.ReadFrame(garbled, 0)
	if err != nil {
		t.Fatalf("garbled handshake got no reply: %v", err)
	}
	if ack, ok := v0.(*wire.Ack); !ok || !strings.Contains(ack.Err, "undecodable") {
		t.Fatalf("garbled handshake reply = %#v, want undecodable-handshake Ack", v0)
	}

	// A "worker" with the wrong version dials rank 0 directly.
	conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := &wire.Hello{Magic: wire.Magic, Version: wire.Version + 1, World: 2, Rank: 1, ConfigSum: 1}
	if _, err := wire.WriteFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("no rejection reply: %v", err)
	}
	ack, ok := v.(*wire.Ack)
	if !ok || !strings.Contains(ack.Err, "version") {
		t.Fatalf("rejection = %#v, want version-mismatch Ack", v)
	}
	// The rejected peer aborts rank 0's rendezvous with a named cause.
	if err := <-joinErr; err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("join error = %v, want version mismatch", err)
	}

	// Same gate for a mismatched config digest.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _, err := Join(TCPConfig{
			World: 2, Rank: 0, Addrs: []string{ln2.Addr().String(), "127.0.0.1:1"}, Listener: ln2,
			ConfigSum: 1, RendezvousTimeout: 5 * time.Second,
		})
		joinErr <- err
	}()
	conn2, err := net.DialTimeout("tcp", ln2.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	skewed := &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: 2, Rank: 1, ConfigSum: 2}
	if _, err := wire.WriteFrame(conn2, skewed); err != nil {
		t.Fatal(err)
	}
	if err := <-joinErr; err == nil || !strings.Contains(err.Error(), "config digest") {
		t.Fatalf("join error = %v, want config-digest mismatch", err)
	}
}

func TestTCPRendezvousTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = Join(TCPConfig{
		World: 2, Rank: 0, Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, Listener: ln,
		RendezvousTimeout: 500 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "rendezvous timed out") {
		t.Fatalf("join with absent peer: %v", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("rendezvous timeout took %v", waited)
	}
}

// settleGoroutines polls until the goroutine count drops to at most
// baseline+slack, failing with a stack dump if it never does.
func settleGoroutines(t *testing.T, baseline, slack int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines, baseline %d (+%d slack)\n%s", what, n, baseline, slack, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTCPCloseNoGoroutineLeak pins the shutdown audit the ISSUE asks for:
// per-link readers and heartbeat loops must exit promptly on Close — even
// when a peer died abruptly mid-traffic, and even when rejected handshake
// stragglers hit a rendezvous that already returned (the offer channels
// must never strand a goroutine).
func TestTCPCloseNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// A working mesh with traffic, one peer dying abruptly, then Close.
	mesh := loopbackMesh(t, 3, 0x77)
	for i := 0; i < 10; i++ {
		if err := mesh[0].Send(0, 1, []int{i}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mesh[1].Recv(1, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	mesh[2].Close() // abrupt peer death: links down, peers' readers exit
	time.Sleep(100 * time.Millisecond)
	for _, tp := range mesh {
		tp.Close()
	}
	settleGoroutines(t, baseline, 2, "after mesh close")

	// Rendezvous flooded with bad peers: the first rejection aborts the
	// join; the rest arrive after it returned and must clean themselves up
	// (conns closed, no goroutine parked on the offer channels).
	baseline = runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		_, _, err := Join(TCPConfig{
			World: 2, Rank: 0, Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, Listener: ln,
			ConfigSum: 5, RendezvousTimeout: 5 * time.Second,
		})
		joinErr <- err
	}()
	for i := 0; i < 20; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			break // listener already closed by the aborted join
		}
		// Rank 7 is out of range for a 2-world: rejected with an Ack.
		wire.WriteFrame(conn, &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: 2, Rank: 7, ConfigSum: 5, Epoch: 1})
		wire.ReadFrame(conn, 0)
		conn.Close()
	}
	if err := <-joinErr; err == nil {
		t.Fatal("join survived a flood of invalid peers")
	}
	settleGoroutines(t, baseline, 2, "after rejected-peer flood")
}

// TestTCPEpochHandshake pins the epoch-convergence rules at rendezvous: a
// stale dialer is answered with the acceptor's newer Hello and turned away
// (the acceptor keeps listening), while a newer dialer makes the stale
// acceptor abort with an EpochError naming the epoch to rejoin at.
func TestTCPEpochHandshake(t *testing.T) {
	// Acceptor at epoch 3; world of 2, rank 0 listening for rank 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() {
		tp, _, err := Join(TCPConfig{
			World: 2, Rank: 0, Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, Listener: ln,
			ConfigSum: 9, Epoch: 3, RendezvousTimeout: 10 * time.Second,
		})
		if tp != nil {
			defer tp.Close()
		}
		joined <- err
	}()

	// A stale rank-1 dialer (epoch 1) is answered with the epoch-3 Hello
	// and disconnected — that reply is how it learns what to rejoin at.
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hello := &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: 2, Rank: 1, ConfigSum: 9, Epoch: 1}
	if _, err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("stale dialer got no reply: %v", err)
	}
	reply, ok := v.(*wire.Hello)
	if !ok || reply.Epoch != 3 {
		t.Fatalf("stale dialer reply = %#v, want Hello at epoch 3", v)
	}
	conn.Close()

	// Redialing at the observed epoch completes the mesh.
	conn2, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	hello.Epoch = 3
	if _, err := wire.WriteFrame(conn2, hello); err != nil {
		t.Fatal(err)
	}
	if v, _, err := wire.ReadFrame(conn2, 0); err != nil {
		t.Fatal(err)
	} else if h, ok := v.(*wire.Hello); !ok || h.Epoch != 3 {
		t.Fatalf("matched-epoch reply = %#v", v)
	}
	if err := <-joined; err != nil {
		t.Fatalf("join after epoch catch-up: %v", err)
	}

	// The mirror case: an acceptor at epoch 1 meeting an epoch-4 dialer
	// aborts with an EpochError so its rejoin loop can adopt epoch 4.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _, err := Join(TCPConfig{
			World: 2, Rank: 0, Addrs: []string{ln2.Addr().String(), "127.0.0.1:1"}, Listener: ln2,
			ConfigSum: 9, Epoch: 1, RendezvousTimeout: 10 * time.Second,
		})
		joined <- err
	}()
	conn3, err := net.DialTimeout("tcp", ln2.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	newer := &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: 2, Rank: 1, ConfigSum: 9, Epoch: 4}
	if _, err := wire.WriteFrame(conn3, newer); err != nil {
		t.Fatal(err)
	}
	err = <-joined
	var eErr *EpochError
	if !errors.As(err, &eErr) || eErr.Observed != 4 {
		t.Fatalf("stale acceptor join error = %v, want EpochError observing 4", err)
	}
}

// TestCtrlRoundTrip exercises the coordinator control plane: handshake,
// command/result frames, and orderly shutdown via EOF.
func TestCtrlRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String()}
	type joined struct {
		tp   *TCP
		ctrl *Ctrl
		err  error
	}
	workerCh := make(chan joined, 1)
	go func() {
		tp, ctrl, err := Join(TCPConfig{
			World: 1, Rank: 0, Addrs: addrs, Listener: ln,
			ConfigSum: 9, ExpectCtrl: true, RendezvousTimeout: 5 * time.Second,
		})
		workerCh <- joined{tp, ctrl, err}
	}()
	coords, _, err := DialCtrl(TCPConfig{Addrs: addrs, ConfigSum: 9, RendezvousTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	coord := coords[0]
	w := <-workerCh
	if w.err != nil {
		t.Fatal(w.err)
	}
	defer w.tp.Close()
	if w.ctrl == nil {
		t.Fatal("worker join returned no control connection")
	}
	if err := coord.Send(&wire.DropCmd{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	v, err := w.ctrl.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cmd, ok := v.(*wire.DropCmd); !ok || cmd.Seq != 5 {
		t.Fatalf("worker received %#v", v)
	}
	if err := w.ctrl.Send(&wire.Ack{}); err != nil {
		t.Fatal(err)
	}
	if v, err := coord.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*wire.Ack); !ok {
		t.Fatalf("coordinator received %#v", v)
	}
	// One command out, one result in (the handshake predates the Ctrl).
	msgs, bytes := coord.WireTotals()
	if msgs < 2 || bytes == 0 {
		t.Fatalf("ctrl wire totals = %d msgs / %d bytes", msgs, bytes)
	}
	// Coordinator hangs up; the worker's blocking Recv ends with EOF.
	coord.Close()
	if _, err := w.ctrl.Recv(5 * time.Second); err == nil {
		t.Fatal("worker recv survived coordinator hangup")
	}
}

// TestHeartbeatConfigValidation pins the heartbeat knob contract: zero
// values take the defaults, a one-miss window is rejected (it flaps on
// ordinary jitter), negative thresholds mean "disabled" and pass, and a
// negative interval is rejected by name.
func TestHeartbeatConfigValidation(t *testing.T) {
	base := func() TCPConfig {
		return TCPConfig{World: 2, Rank: 0, Addrs: []string{"a:1", "b:2"}}
	}
	cfg := base()
	if err := cfg.applyDefaults(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if cfg.HeartbeatEvery != DefaultHeartbeatEvery || cfg.HeartbeatMisses != DefaultHeartbeatMisses {
		t.Fatalf("defaults not applied: every=%v misses=%d", cfg.HeartbeatEvery, cfg.HeartbeatMisses)
	}
	cfg = base()
	cfg.HeartbeatMisses = 1
	if err := cfg.applyDefaults(); err == nil || !strings.Contains(err.Error(), "must be >= 2") {
		t.Fatalf("misses=1 accepted (err=%v)", err)
	}
	cfg = base()
	cfg.HeartbeatMisses = -1
	if err := cfg.applyDefaults(); err != nil {
		t.Fatalf("disabled heartbeats rejected: %v", err)
	}
	cfg = base()
	cfg.HeartbeatEvery = -time.Second
	if err := cfg.applyDefaults(); !errors.Is(err, ErrNegativeHeartbeat) {
		t.Fatalf("negative heartbeat interval: err=%v, want ErrNegativeHeartbeat", err)
	}
	cfg = base()
	cfg.HeartbeatEvery = 100 * time.Millisecond
	cfg.HeartbeatMisses = 2
	if err := cfg.applyDefaults(); err != nil || cfg.HeartbeatEvery != 100*time.Millisecond {
		t.Fatalf("explicit cadence mangled: every=%v err=%v", cfg.HeartbeatEvery, err)
	}
}

// Recycle takes back exactly the blocks the transport lent, and only once:
// the next frame of the kind decodes into a block handed back, while a
// second hand-back, a block the transport did not decode, a hand-back to
// the wrong rank or transport, and a vector change nothing. The poison hook
// makes each take-back visible: it fills the block with NaN and counts it.
// On the in-process transport Recycle does nothing at all.
func TestRecycleTakesBackOnlyWhatWasLent(t *testing.T) {
	defer poisonRecycled.Store(poisonRecycled.Swap(true))
	mesh := loopbackMesh(t, 2, 0x51)
	rng := rand.New(rand.NewSource(1))
	hop := func(rows int) (*wire.KVBlock, *wire.KVBlock) {
		t.Helper()
		sent := &wire.KVBlock{K: tensor.RandN(rng, rows, 1, 4), V: tensor.RandN(rng, rows, 1, 4),
			Pos: make([]int, rows), Seq: make([]int, rows)}
		if err := mesh[0].Send(0, 1, sent, time.Second); err != nil {
			t.Fatal(err)
		}
		v, err := mesh[1].Recv(1, 0, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return sent, v.(*wire.KVBlock)
	}
	foreign, first := hop(6)
	before := poisoned.Load()
	mesh[1].Recycle(1, foreign)  // this transport never decoded it
	mesh[1].Recycle(1, []int{7}) // not a block
	mesh[1].Recycle(0, first)    // rank 0 is not this transport's
	mesh[0].Recycle(0, first)    // nor is the block rank 0's to hand back
	mesh[1].Recycle(1, (*wire.KVBlock)(nil))
	if got := poisoned.Load(); got != before {
		t.Fatalf("%d blocks taken back that were not lent", got-before)
	}
	if math.IsNaN(float64(foreign.K.Data[0])) || math.IsNaN(float64(first.K.Data[0])) {
		t.Fatal("a block that was not taken back was poisoned")
	}
	mesh[1].Recycle(1, first)
	mesh[1].Recycle(1, first)
	if got := poisoned.Load(); got != before+1 {
		t.Fatalf("a lent block handed back twice was taken back %d times, want once", got-before)
	}
	if !math.IsNaN(float64(first.K.Data[0])) {
		t.Fatal("the block taken back was not poisoned")
	}
	sent, second := hop(4)
	if second != first {
		t.Fatal("the next KV frame was not decoded into the block handed back")
	}
	for i, x := range sent.K.Data {
		if math.Float32bits(x) != math.Float32bits(second.K.Data[i]) || len(second.K.Data) != len(sent.K.Data) {
			t.Fatalf("recycled decode K[%d] = %v, sent %v", i, second.K.Data[i], x)
		}
	}

	mem := NewMem(2)
	blk := &wire.KVBlock{K: tensor.RandN(rng, 2, 1, 4)}
	if err := mem.Send(0, 1, blk, time.Second); err != nil {
		t.Fatal(err)
	}
	v, err := mem.Recv(1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mem.Recycle(1, v)
	if math.IsNaN(float64(blk.K.Data[0])) || poisoned.Load() != before+1 {
		t.Fatal("the mailbox took back its sender's block")
	}
}

// Frame counters count only frames that moved. A payload that does not
// encode reaches neither the stream nor the link's counters, and the link
// stays up; a control send likewise; and a control receive that times out
// or meets EOF without a frame counts nothing.
func TestFrameCountersCountOnlyFramesThatMoved(t *testing.T) {
	mesh := loopbackMesh(t, 2, 0x52, func(c *TCPConfig) {
		c.HeartbeatEvery, c.HeartbeatMisses = time.Hour, -1 // no heartbeat frames
	})
	sent := func() wire.LinkStat {
		for _, l := range mesh[0].WireLinks() {
			if l.Src == 0 && l.Dst == 1 {
				return l
			}
		}
		t.Fatal("no 0->1 link")
		return wire.LinkStat{}
	}
	before := sent()
	if err := mesh[0].Send(0, 1, struct{}{}, time.Second); err == nil {
		t.Fatal("an unsupported payload was sent")
	}
	if got := sent(); got != before {
		t.Fatalf("a frame that failed to encode moved the counters: %+v -> %+v", before, got)
	}
	if err := mesh[0].Send(0, 1, []int{7}, time.Second); err != nil {
		t.Fatalf("the link did not survive a payload that failed to encode: %v", err)
	}
	if v, err := mesh[1].Recv(1, 0, 5*time.Second); err != nil || v.([]int)[0] != 7 {
		t.Fatalf("received %v, %v", v, err)
	}
	if got := sent(); got.WireMsgs != before.WireMsgs+1 || got.WireBytes <= before.WireBytes {
		t.Fatalf("one frame moved: %+v -> %+v", before, got)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	defer b.Close()
	ca, cb := newCtrl(a, 0), newCtrl(b, 0)
	totals := func() [4]int64 {
		am, ab := ca.WireTotals()
		bm, bb := cb.WireTotals()
		return [4]int64{am, ab, bm, bb}
	}
	if err := ca.Send(struct{}{}); err == nil {
		t.Fatal("an unsupported control payload was sent")
	}
	if _, err := cb.Recv(10 * time.Millisecond); err == nil {
		t.Fatal("a control receive with nothing sent returned a frame")
	}
	if got := totals(); got != [4]int64{} {
		t.Fatalf("nothing moved, the control totals read %v", got)
	}
	if err := ca.Send(&wire.Ack{Err: "ok"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	moved := totals()
	if moved[0] != 1 || moved[2] != 1 || moved[1] != moved[3] || moved[1] == 0 {
		t.Fatalf("one control frame moved, the totals read %v", moved)
	}
	a.Close()
	if _, err := cb.Recv(5 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("receive after hangup: %v, want EOF", err)
	}
	if got := totals(); got != moved {
		t.Fatalf("an EOF moved the control totals: %v -> %v", moved, got)
	}
}

// A mesh link whose far end goes away is reported as that end hanging up,
// however it went: when rank r's end of the link is closed cleanly (FIN) or
// reset (RST, after SetLinger(0)), rank 0's failure event names Peer r, its
// cause matches io.EOF, and its text names "peer rank r".
func TestTCPDeadLinkCauseNamesThePeer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset bool
	}{{"closed", false}, {"reset", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const r = 2
			mesh := loopbackMesh(t, 3, 7)
			conn, ok := mesh[r].links[0].conn.(*net.TCPConn)
			if !ok {
				t.Fatalf("rank %d's link to rank 0 is a %T", r, mesh[r].links[0].conn)
			}
			if tc.reset {
				if err := conn.SetLinger(0); err != nil {
					t.Fatal(err)
				}
			}
			conn.Close()
			select {
			case ev := <-mesh[0].Failures():
				if ev.Peer != r {
					t.Fatalf("failure event names peer %d, want %d (cause %v)", ev.Peer, r, ev.Cause)
				}
				if !errors.Is(ev.Cause, io.EOF) {
					t.Fatalf("cause %q does not match io.EOF", ev.Cause)
				}
				if want := fmt.Sprintf("peer rank %d", r); !strings.Contains(ev.Cause.Error(), want) {
					t.Fatalf("cause %q does not name %q", ev.Cause, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no failure event for the dead link")
			}
		})
	}
}

// fakeWorker answers one control dial as rank of a world of n, after
// holding the coordinator's hello for delay, and then reads the connection
// until the coordinator closes it: closed receives once that happens.
func fakeWorker(t *testing.T, rank, n int, sum uint64, delay time.Duration) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := wire.ReadFrame(conn, 0); err != nil {
			return
		}
		time.Sleep(delay)
		reply := &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: n, Rank: rank, ConfigSum: sum, Epoch: 1}
		if _, err := wire.WriteFrame(conn, reply); err != nil {
			return
		}
		io.Copy(io.Discard, conn)
		close(done)
	}()
	return ln.Addr().String(), done
}

// DialCtrl dials the workers at once: three workers that each hold the
// hello for 400 ms are connected in about 400 ms, not the 1.2 s one after
// the other would take.
func TestDialCtrlTracksTheSlowestHello(t *testing.T) {
	const n, sum, delay = 3, 11, 400 * time.Millisecond
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i], _ = fakeWorker(t, i, n, sum, delay)
	}
	start := time.Now()
	ctrls, _, err := DialCtrl(TCPConfig{Addrs: addrs, ConfigSum: sum, RendezvousTimeout: 10 * time.Second, HeartbeatMisses: -1})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctrls {
		c.Close()
	}
	if took < delay || took >= 2*delay {
		t.Fatalf("dialing %d workers that each answer after %v took %v: want the slowest hello, not their sum (%v)", n, delay, took, n*delay)
	}
}

// One unreachable worker fails the dial with its rank named, and the
// connections already opened to the others are closed rather than left
// behind.
func TestDialCtrlUnreachableWorkerClosesTheRest(t *testing.T) {
	const n, sum = 3, 11
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here any more: every dial is refused
	addrs := make([]string, n)
	var closed []<-chan struct{}
	for i := range addrs {
		if i == 1 {
			addrs[i] = deadAddr
			continue
		}
		var c <-chan struct{}
		addrs[i], c = fakeWorker(t, i, n, sum, 0)
		closed = append(closed, c)
	}
	_, _, err = DialCtrl(TCPConfig{Addrs: addrs, ConfigSum: sum, RendezvousTimeout: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("dialing an unreachable worker succeeded")
	}
	if want := fmt.Sprintf("rank 1 at %s", deadAddr); !strings.Contains(err.Error(), want) {
		t.Fatalf("dial error %q does not name %q", err, want)
	}
	for i, c := range closed {
		select {
		case <-c:
		case <-time.After(5 * time.Second):
			t.Fatalf("reachable worker %d still holds its connection after the dial failed", i)
		}
	}
}
