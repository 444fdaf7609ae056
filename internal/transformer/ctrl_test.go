package transformer

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm/wire"
	"repro/internal/testsupport"
)

// The control connection's liveness and traffic, seen from outside: a fake
// worker speaks the wire protocol by hand, and a frame-counting proxy sits
// between a coordinator and a real worker. Neither reaches into the
// coordinator or the worker, so these tests pin behaviour, not structure.

// fakeWorker accepts one control connection as rank `rank` of a world of
// `world`, answers the coordinator's handshake, heartbeats every `every`
// when it is positive, answers every command with an Ack, and hands the
// connection to the test.
func fakeWorker(t *testing.T, cfg Config, world, rank int, every time.Duration) (addr string, conn <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan net.Conn, 1)
	g := joinOnCleanup(t, ln)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		ln.Close()
		g.track(c)
		if _, _, err := wire.ReadFrame(c, 0); err != nil {
			return
		}
		var wmu sync.Mutex
		send := func(v any) error {
			wmu.Lock()
			defer wmu.Unlock()
			_, err := wire.WriteFrame(c, v)
			return err
		}
		if send(&wire.Hello{Magic: wire.Magic, Version: wire.Version, World: world, Rank: rank,
			ConfigSum: ConfigSum(cfg, world, 0), Epoch: 1}) != nil {
			return
		}
		out <- c
		if every > 0 {
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				for send(&wire.Heartbeat{}) == nil {
					time.Sleep(every)
				}
			}()
		}
		for {
			if _, _, err := wire.ReadFrame(c, 0); err != nil {
				return
			}
			if send(&wire.Ack{}) != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), out
}

// connGroup is what a test's hand-written wire peer runs: its goroutines
// and the connections they serve.
type connGroup struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func (g *connGroup) track(c net.Conn) {
	g.mu.Lock()
	g.conns = append(g.conns, c)
	g.mu.Unlock()
}

// joinOnCleanup returns a connGroup whose goroutines the test's cleanup
// joins, after closing ln and every tracked connection, so that none of
// them runs on into the next test.
func joinOnCleanup(t *testing.T, ln net.Listener) *connGroup {
	g := &connGroup{}
	t.Cleanup(func() {
		ln.Close()
		g.mu.Lock()
		for _, c := range g.conns {
			c.Close()
		}
		g.mu.Unlock()
		g.wg.Wait()
	})
	return g
}

// A worker whose control connection stays open but goes silent — no
// replies, no heartbeats — is declared dead once the coordinator's miss
// window passes, while a worker that keeps heartbeating stays up. The
// event names the silent rank, and no command needs to be in flight.
func TestCtrlSilentWorkerDeclaredDead(t *testing.T) {
	cfg := Tiny(3)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const every, misses = 50 * time.Millisecond, 3
	window := every * misses
	live, _ := fakeWorker(t, cfg, 2, 0, every/5)
	silent, _ := fakeWorker(t, cfg, 2, 1, 0)
	start := time.Now()
	c, err := ConnectCluster(w, ConnectConfig{Addrs: []string{live, silent}, DialTimeout: 5 * time.Second,
		HeartbeatEvery: every, HeartbeatMisses: misses})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case ev := <-c.Failures():
		elapsed := time.Since(start)
		if ev.Peer != 1 || ev.Cause == nil {
			t.Fatalf("failure event = %+v, want rank 1 with a cause", ev)
		}
		if elapsed < window || elapsed > window+2*time.Second {
			t.Fatalf("silent rank declared dead after %v, miss window %v", elapsed, window)
		}
	case <-time.After(window + 5*time.Second):
		t.Fatalf("silent rank not declared dead %v past its %v miss window", 5*time.Second, window)
	}
}

// A FailureNote a worker sends while the coordinator is idle reaches the
// cluster's failure channel with the reporting rank and its cause, without
// any command in flight.
func TestCtrlFailureNoteWhileIdle(t *testing.T) {
	cfg := Tiny(3)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, conns := fakeWorker(t, cfg, 1, 0, 0)
	c, err := ConnectCluster(w, ConnectConfig{Addrs: []string{addr}, DialTimeout: 5 * time.Second,
		HeartbeatMisses: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := c.Failures()
	conn := <-conns
	if _, err := wire.WriteFrame(conn, &wire.FailureNote{Rank: 0, Cause: "link to rank 1 failed: boom"}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Peer != 0 || ev.Cause == nil || !strings.Contains(ev.Cause.Error(), "boom") {
			t.Fatalf("failure event = %+v, want rank 0 reporting boom", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the worker's failure note never reached the cluster")
	}
}

// frameProxy relays one control connection between a coordinator and a
// worker frame by frame, counting the frames each way after the handshake
// and the heartbeats among the worker's.
type frameProxy struct {
	toWorker, toCoord, beats atomic.Int64
}

func startFrameProxy(t *testing.T, worker string) (*frameProxy, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{}
	g := joinOnCleanup(t, ln)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		coord, err := ln.Accept()
		if err != nil {
			return
		}
		ln.Close()
		g.track(coord)
		wk, err := net.Dial("tcp", worker)
		if err != nil {
			coord.Close()
			return
		}
		g.track(wk)
		relay := func(dst, src net.Conn, n *atomic.Int64) {
			defer dst.Close()
			defer src.Close()
			for i := 0; ; i++ {
				v, _, err := wire.ReadFrame(src, 0)
				if err != nil {
					return
				}
				if i > 0 {
					n.Add(1)
					if _, hb := v.(*wire.Heartbeat); hb {
						p.beats.Add(1)
					}
				}
				if _, err := wire.WriteFrame(dst, v); err != nil {
					return
				}
			}
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			relay(wk, coord, &p.toWorker)
		}()
		relay(coord, wk, &p.toCoord)
	}()
	return p, ln.Addr().String()
}

// One control link carries exactly one frame per command each way, and the
// coordinator never heartbeats: with the worker's heartbeats at an hour, N
// commands are N frames in each direction; at 5 ms the worker's direction
// gains heartbeats and the coordinator's still carries exactly N.
func TestCtrlFrameCountsPerDirection(t *testing.T) {
	for _, every := range []time.Duration{time.Hour, 5 * time.Millisecond} {
		cfg := Tiny(5)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		workerErr := make(chan error, 1)
		go func() {
			workerErr <- RunWorker(WorkerConfig{Transformer: cfg, Rank: 0, World: 1,
				Listener: ln, Addrs: []string{addr}, RendezvousTimeout: 10 * time.Second,
				HeartbeatEvery: every})
		}()
		proxy, proxyAddr := startFrameProxy(t, addr)
		w, err := NewWeights(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The coordinator's own window is wide: this test counts frames and
		// must not flap on a loaded runner.
		c, err := ConnectCluster(w, ConnectConfig{Addrs: []string{proxyAddr}, DialTimeout: 10 * time.Second,
			HeartbeatEvery: every, HeartbeatMisses: max(3, int(2*time.Second/every))})
		if err != nil {
			t.Fatal(err)
		}
		const n = 5
		for i := 0; i < n; i++ {
			if _, err := c.Telemetry(); err != nil {
				t.Fatal(err)
			}
		}
		if every < time.Second {
			deadline := time.Now().Add(5 * time.Second)
			for proxy.beats.Load() < 3 && time.Now().Before(deadline) {
				time.Sleep(every)
			}
		}
		toWorker, toCoord, beats := proxy.toWorker.Load(), proxy.toCoord.Load(), proxy.beats.Load()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-workerErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
		if toWorker != n {
			t.Fatalf("heartbeat %v: %d frames to the worker for %d commands, want exactly %d", every, toWorker, n, n)
		}
		if toCoord-beats != n {
			t.Fatalf("heartbeat %v: %d frames to the coordinator besides %d heartbeats, want exactly %d",
				every, toCoord-beats, beats, n)
		}
		if every == time.Hour && beats != 0 {
			t.Fatalf("%d heartbeats at an hour's period", beats)
		}
		if every < time.Second && beats < 3 {
			t.Fatalf("%d heartbeats at %v", beats, every)
		}
	}
}

// The coordinator hangs up while the worker heartbeats its control
// connection every millisecond, so the heartbeat may be the first to meet
// the closed socket. Either way it is a hangup: RunWorker returns nil, and a
// rejoining worker moves to the next epoch, where a fresh coordinator finds
// it. Neither end leaves a goroutine behind.
func TestWorkerHangupWhileHeartbeating(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	cfg := Tiny(6)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	connect := func(addr string) *Cluster {
		t.Helper()
		// The coordinator's window is wide: this test is about the worker.
		c, err := ConnectCluster(w, ConnectConfig{Addrs: []string{addr}, DialTimeout: 10 * time.Second,
			HeartbeatEvery: time.Millisecond, HeartbeatMisses: 2000})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	baseline := 0
	for i := 0; i < 50; i++ {
		for _, rejoin := range []bool{false, true} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			done := make(chan error, 1)
			go func() {
				done <- RunWorkerLoop(WorkerConfig{Transformer: cfg, Rank: 0, World: 1,
					Listener: ln, Addrs: []string{addr}, RendezvousTimeout: 10 * time.Second,
					HeartbeatEvery: time.Millisecond, Rejoin: rejoin, MaxRejoins: 2})
			}()
			c := connect(addr)
			if _, err := c.Telemetry(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
			c.plane.hangup()
			if rejoin {
				next := connect(addr)
				if next.Epoch() != 2 {
					t.Fatalf("run %d: the rejoining worker answered at epoch %d after a hangup, want 2", i, next.Epoch())
				}
				c = next
			}
			c.Close()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run %d (rejoin %v): worker returned %v after the coordinator hung up", i, rejoin, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("run %d (rejoin %v): worker still serving after the coordinator hung up", i, rejoin)
			}
		}
		if i == 0 {
			baseline = runtime.NumGoroutine()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline+2; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after 49 more clusters, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
