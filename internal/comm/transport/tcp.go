package transport

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm/wire"
	"repro/internal/tensor"
)

// Rendezvous / liveness defaults.
const (
	DefaultRendezvousTimeout = 15 * time.Second
	DefaultHeartbeatEvery    = 500 * time.Millisecond
	// DefaultHeartbeatMisses is how many consecutive heartbeat periods a
	// link may stay silent before the receiver declares it dead. The miss
	// window (misses x period) also bounds each heartbeat write.
	DefaultHeartbeatMisses = 3
	DefaultDialTimeout     = 2 * time.Second
)

// TCPConfig parameterizes one rank's entry into a TCP mesh.
type TCPConfig struct {
	World int      // total rank count
	Rank  int      // this process's rank, [0, World)
	Addrs []string // Addrs[i] = rank i's listen address

	// Listener is this rank's bound listener. Nil listens on Addrs[Rank];
	// callers that bind :0 themselves (to learn the port before sharing it)
	// pass the listener in and put the resolved address in Addrs.
	Listener net.Listener

	// ConfigSum is the model/config digest exchanged in the Hello handshake;
	// mismatched peers are rejected at rendezvous, not discovered as skewed
	// logits later.
	ConfigSum uint64

	// Epoch is the cluster incarnation this rank joins (0 is normalized to
	// 1). Handshakes require equal epochs; a peer on a newer epoch makes
	// Join fail with an EpochError so the rejoin loop can converge on it,
	// while stale dialers are answered with our Hello and turned away.
	Epoch uint64

	// ExpectCtrl makes Join also wait for the coordinator's control
	// connection (a Hello with rank -1) before returning.
	ExpectCtrl bool

	RendezvousTimeout time.Duration // mesh-formation deadline; default 15s
	HeartbeatEvery    time.Duration // idle-link heartbeat period; default 500ms
	// HeartbeatMisses is the liveness miss threshold: a link that delivers
	// no frame for HeartbeatMisses consecutive heartbeat periods is downed
	// with a named cause (straggler or dead peer). Negative disables
	// read-side liveness; 0 means DefaultHeartbeatMisses.
	HeartbeatMisses int
	MaxFrame        int // per-frame byte cap; default wire.DefaultMaxFrame
}

// missWindow is the read-idle (and heartbeat-write) deadline: how long a
// link may stay silent before it is declared dead. Zero disables it.
func (c *TCPConfig) missWindow() time.Duration {
	if c.HeartbeatMisses < 0 {
		return 0
	}
	return time.Duration(c.HeartbeatMisses) * c.HeartbeatEvery
}

func (c *TCPConfig) applyDefaults() error {
	if c.World <= 0 {
		return fmt.Errorf("transport: non-positive world size %d", c.World)
	}
	if c.Rank < 0 || c.Rank >= c.World {
		return fmt.Errorf("transport: rank %d outside world [0,%d)", c.Rank, c.World)
	}
	if len(c.Addrs) != c.World {
		return fmt.Errorf("transport: %d addresses for world size %d", len(c.Addrs), c.World)
	}
	if c.RendezvousTimeout <= 0 {
		c.RendezvousTimeout = DefaultRendezvousTimeout
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if c.HeartbeatMisses == 1 {
		// A one-period window races the sender's own ticker: a healthy idle
		// link would flap. Two periods is the tightest sound threshold.
		return fmt.Errorf("transport: heartbeat miss threshold must be >= 2 (or < 0 to disable), got 1")
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	return nil
}

// link is one established peer connection (one conn per unordered rank
// pair, carrying both directions).
type link struct {
	peer int
	conn net.Conn

	wmu sync.Mutex  // serializes frame writes (rank goroutine + heartbeat)
	w   wire.Writer // the link's frame buffer, used under wmu

	// rtimer bounds Recv's wait for this peer's next frame. One goroutine,
	// the local rank's, receives from a peer at a time, and Go 1.23+ timers
	// deliver nothing stale after Stop or Reset, so one timer serves every
	// wait.
	rtimer *time.Timer

	downOnce sync.Once
	downCh   chan struct{}
	cause    atomic.Value // error
	onDown   func(peer int, cause error)

	outMsgs, outBytes int64 // atomics: frames/bytes written
	inMsgs, inBytes   int64 // atomics: frames/bytes read
	tapSeq            int64 // atomic: data frames offered to the frame tap
}

func (l *link) markDown(err error) {
	l.downOnce.Do(func() {
		if err == nil {
			err = errors.New("connection closed")
		}
		l.cause.Store(err)
		close(l.downCh)
		l.conn.Close()
		if l.onDown != nil {
			l.onDown(l.peer, err)
		}
	})
}

// recvTimer returns the link's receive timer armed for d.
func (l *link) recvTimer(d time.Duration) *time.Timer {
	if l.rtimer == nil {
		l.rtimer = time.NewTimer(d)
	} else {
		l.rtimer.Reset(d)
	}
	return l.rtimer
}

func (l *link) down() bool {
	select {
	case <-l.downCh:
		return true
	default:
		return false
	}
}

func (l *link) downCause() error {
	if err, ok := l.cause.Load().(error); ok {
		return err
	}
	return nil
}

// TCP is the multi-process transport: this process hosts exactly one rank,
// connected to every peer rank by a TCP connection carrying wire-codec
// frames.
type TCP struct {
	cfg    TCPConfig
	links  map[int]*link
	inbox  map[int]chan any
	inject failMap
	events *eventSink
	tap    atomic.Pointer[FrameTap]

	// spares holds the KV, query and output blocks the rank handed back
	// (Recycle), which the links' readers decode later frames into; loans
	// are the blocks the readers handed the rank and it may hand back.
	spares *wire.Spares
	loans  loans

	closeOnce sync.Once
	closedCh  chan struct{}
}

// FrameTap intercepts every encoded data frame this rank sends: it receives
// the destination rank, the frame's per-link sequence number (data frames
// only — heartbeats bypass the tap, so the numbering is a deterministic
// function of the protocol traffic), and the complete on-wire bytes (length
// prefix, payload, CRC trailer). Whatever byte slices it returns are written
// in order; returning the input unchanged is a pass-through, mutated or
// truncated bytes simulate in-flight damage (caught by the receiver's CRC
// check), a repeated slice simulates duplicate delivery, and an empty result
// silently drops the frame. The chaos layer is the only intended caller.
//
// frame is the link's own encode buffer: the tap must not retain it after
// returning, and must copy it before mangling it. The slices it returns may
// alias frame; they are written before the link encodes its next frame.
type FrameTap func(dst int, seq int64, frame []byte) [][]byte

// SetFrameTap installs (or, with nil, removes) the transport's frame tap.
// Install it before traffic starts; heartbeat frames never pass through it.
func (t *TCP) SetFrameTap(tap FrameTap) {
	if tap == nil {
		t.tap.Store(nil)
		return
	}
	t.tap.Store(&tap)
}

// WorldSize implements Transport.
func (t *TCP) WorldSize() int { return t.cfg.World }

// LocalRanks implements Transport: a TCP process hosts one rank.
func (t *TCP) LocalRanks() []int { return []int{t.cfg.Rank} }

// FailLink implements Transport (send-side fault injection, mirroring Mem).
func (t *TCP) FailLink(src, dst int) {
	t.inject.fail(src, dst)
	t.events.publish(FailureEvent{Peer: dst, Cause: fmt.Errorf("injected link failure %d->%d", src, dst)})
}

// HealLink implements Transport.
func (t *TCP) HealLink(src, dst int) { t.inject.heal(src, dst) }

// DropLink forcibly downs the established connection to peer with the given
// cause, as if the wire were cut: the conn closes, so BOTH ends observe the
// failure (the peer's reader gets a reset/EOF) — unlike FailLink, which is
// send-side-only injection. The chaos layer's link-drop and partition faults
// use it to make a cut observable to the whole mesh.
func (t *TCP) DropLink(peer int, cause error) {
	if cause == nil {
		cause = fmt.Errorf("link to rank %d dropped", peer)
	}
	if l := t.links[peer]; l != nil {
		l.markDown(cause)
	}
}

// Failures implements Transport: dead peer connections (reader EOF, reset,
// failed heartbeat write) and injected faults surface here, so a process
// idling between commands still detects a crashed peer within a couple of
// heartbeat periods instead of at its next ring pass.
func (t *TCP) Failures() <-chan FailureEvent { return t.events.ch }

// Send implements Transport: encodes payload as one frame into the link's
// buffer and writes it to the peer. A payload that does not encode is an
// error that leaves the link up: nothing reached the stream.
func (t *TCP) Send(src, dst int, payload any, timeout time.Duration) error {
	if src != t.cfg.Rank {
		return fmt.Errorf("transport: rank %d is not hosted by this process (local %d)", src, t.cfg.Rank)
	}
	if t.inject.failed(src, dst) {
		return ErrLinkFailed
	}
	l := t.links[dst]
	if l == nil {
		return failWith(ErrLinkFailed, fmt.Errorf("no link to rank %d", dst))
	}
	if l.down() {
		return failWith(ErrLinkFailed, l.downCause())
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	frame, err := l.w.Frame(payload)
	if err != nil {
		return err
	}
	if err := l.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return failWith(ErrLinkFailed, err)
	}
	var n int
	if tp := t.tap.Load(); tp != nil {
		n, err = t.sendTapped(l, dst, frame, *tp)
	} else {
		n, err = l.conn.Write(frame) //cplint:allow lock-send wmu exists to serialize frame writes; a stalled write kills the link via deadline
	}
	countSent(&l.outMsgs, &l.outBytes, n, err)
	if err != nil {
		// Any write error — timeouts included — may have left a partial
		// frame on the stream; the framing is unrecoverable, so the link
		// dies either way. Timeouts still surface as ErrTimeout.
		l.markDown(err)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return failWith(ErrTimeout, err)
		}
		return failWith(ErrLinkFailed, err)
	}
	return nil
}

// countSent adds one frame to a link's frame counter when it was written in
// full (err is nil), and the n bytes written to its byte counter either way.
// A frame that failed to encode moved nothing and is never counted.
func countSent(msgs, bytes *int64, n int, err error) {
	if err == nil {
		atomic.AddInt64(msgs, 1)
	}
	atomic.AddInt64(bytes, int64(n))
}

// sendTapped routes one encoded frame through the installed frame tap and
// writes whatever it returns. Called with l.wmu held.
func (t *TCP) sendTapped(l *link, dst int, frame []byte, tap FrameTap) (int, error) {
	seq := atomic.AddInt64(&l.tapSeq, 1) - 1
	total := 0
	for _, f := range tap(dst, seq, frame) {
		n, err := l.conn.Write(f)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Recv implements Transport: returns the next decoded frame from src.
// Buffered frames are drained even after the link dies; once empty, a dead
// link fails immediately instead of burning the whole timeout.
func (t *TCP) Recv(dst, src int, timeout time.Duration) (any, error) {
	if dst != t.cfg.Rank {
		return nil, fmt.Errorf("transport: rank %d is not hosted by this process (local %d)", dst, t.cfg.Rank)
	}
	ch := t.inbox[src]
	l := t.links[src]
	if ch == nil || l == nil {
		return nil, failWith(ErrLinkFailed, fmt.Errorf("no link from rank %d", src))
	}
	select {
	case v := <-ch:
		return v, nil
	default:
	}
	timer := l.recvTimer(timeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		return v, nil
	case <-l.downCh:
		// The reader may have enqueued frames before dying.
		select {
		case v := <-ch:
			return v, nil
		default:
			return nil, failWith(ErrLinkFailed, l.downCause())
		}
	case <-t.closedCh:
		return nil, failWith(ErrLinkFailed, errors.New("transport closed"))
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// Recycle implements Transport: a KV, query or output block this transport
// decoded and lent to rank dst goes back to its spares, and a link's reader
// may decode a later frame into it. Anything else — a block already handed
// back, another transport's or the rank's own payload, a vector — is
// ignored.
func (t *TCP) Recycle(dst int, payload any) {
	if dst != t.cfg.Rank || !wire.Recyclable(payload) || !t.loans.settle(payload) {
		return
	}
	if poisonRecycled.Load() {
		poison(payload)
	}
	t.spares.Put(payload)
}

// poisonRecycled is a test hook, not a setting: while it is set, Recycle
// fills every float of a block it takes back with NaN before a reader can
// decode into it, so a rank that still reads a block it handed back computes
// NaN instead of quietly reading the right numbers until a later frame
// overwrites them. poisoned counts the blocks it filled.
var (
	poisonRecycled atomic.Bool
	poisoned       atomic.Int64
)

func poison(v any) {
	fill := func(t *tensor.Tensor) {
		if t != nil {
			for i := range t.Data {
				t.Data[i] = float32(math.NaN())
			}
		}
	}
	switch b := v.(type) {
	case *wire.KVBlock:
		fill(b.K)
		fill(b.V)
	case *wire.QBlock:
		fill(b.Q)
	case *wire.OBlock:
		if b.Out != nil {
			fill(b.Out.O)
			for i := range b.Out.LSE {
				b.Out.LSE[i] = math.NaN()
			}
		}
	}
	poisoned.Add(1)
}

// loans are the blocks a transport's readers decoded and handed to the rank,
// so that Recycle takes back only what was lent, and only once. It keeps the
// most recent lends: a block the rank never hands back drops out, and is
// left to the garbage collector like any other payload.
type loans struct {
	mu  sync.Mutex
	out []any // oldest first, at most cap(out) blocks
}

func (l *loans) lend(v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.out) == cap(l.out) {
		l.out = append(l.out[:0], l.out[1:]...)
	}
	l.out = append(l.out, v)
}

// settle takes v off the loans and reports whether it was out.
func (l *loans) settle(v any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.out {
		if x == v {
			n := len(l.out) - 1
			copy(l.out[i:], l.out[i+1:])
			l.out[n] = nil
			l.out = l.out[:n]
			return true
		}
	}
	return false
}

// Waiting implements Transport: a data frame from src is in the inbox.
// Heartbeats never reach the inbox, so they never count.
func (t *TCP) Waiting(dst, src int) bool { return len(t.inbox[src]) > 0 }

// WireLinks implements Transport: two directed entries per peer link.
func (t *TCP) WireLinks() []wire.LinkStat {
	peers := make([]int, 0, len(t.links))
	for p := range t.links {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	out := make([]wire.LinkStat, 0, 2*len(peers))
	for _, p := range peers {
		l := t.links[p]
		out = append(out,
			wire.LinkStat{Src: t.cfg.Rank, Dst: p,
				WireMsgs: atomic.LoadInt64(&l.outMsgs), WireBytes: atomic.LoadInt64(&l.outBytes)},
			wire.LinkStat{Src: p, Dst: t.cfg.Rank,
				WireMsgs: atomic.LoadInt64(&l.inMsgs), WireBytes: atomic.LoadInt64(&l.inBytes)},
		)
	}
	return out
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		// Silence the event sink first: an orderly local close is not a
		// peer failure, and the links downed below must not publish one.
		t.events.close()
		close(t.closedCh)
		for _, l := range t.links {
			l.markDown(errors.New("transport closed"))
		}
	})
	return nil
}

func (t *TCP) hello() *wire.Hello {
	return &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: t.cfg.World,
		Rank: t.cfg.Rank, ConfigSum: t.cfg.ConfigSum, Epoch: t.cfg.Epoch}
}

// validateHello checks a peer handshake frame against this mesh's identity.
func validateHello(h *wire.Hello, world int, configSum uint64) error {
	if h.Magic != wire.Magic {
		return fmt.Errorf("bad magic %#x", h.Magic)
	}
	if h.Version != wire.Version {
		return fmt.Errorf("protocol version %d, want %d", h.Version, wire.Version)
	}
	if h.World != world {
		return fmt.Errorf("world size %d, want %d", h.World, world)
	}
	if h.ConfigSum != configSum {
		return fmt.Errorf("config digest %#x, want %#x (mismatched model/seed/flags)", h.ConfigSum, configSum)
	}
	return nil
}

// joinConn is one accepted or dialed connection after its handshake.
type joinConn struct {
	rank  int // -1 for the coordinator control connection
	conn  net.Conn
	hello wire.Hello
}

// Join forms the mesh: listens for higher-ranked peers (and, with
// ExpectCtrl, the coordinator), dials lower-ranked peers with retry, and
// returns once every expected connection is up with readers and heartbeats
// running. The returned Ctrl is nil unless ExpectCtrl is set.
func Join(cfg TCPConfig) (*TCP, *Ctrl, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, nil, fmt.Errorf("transport: rank %d listen: %w", cfg.Rank, err)
		}
	}
	// A rank holds at most a pass's blocks from its peers before it hands
	// them back, and a reader may decode one layer ahead of the rank.
	spares := 2 * cfg.World
	t := &TCP{
		cfg:      cfg,
		links:    make(map[int]*link),
		inbox:    make(map[int]chan any),
		inject:   newFailMap(),
		events:   newEventSink(2 * cfg.World),
		spares:   wire.NewSpares(spares),
		loans:    loans{out: make([]any, 0, 3*spares)},
		closedCh: make(chan struct{}),
	}
	deadline := time.Now().Add(cfg.RendezvousTimeout)
	connCh := make(chan joinConn, cfg.World+1)
	errCh := make(chan error, cfg.World+1)
	// rzDone is closed when Join returns. Handshake goroutines deliver
	// their conn/error through it so a straggler arriving after the
	// rendezvous is over closes its conn and exits instead of blocking
	// forever on a channel nobody drains (a goroutine and fd leak under
	// repeated bad peers).
	rzDone := make(chan struct{})
	offerConn := func(jc joinConn) {
		select {
		case connCh <- jc:
		case <-rzDone:
			jc.conn.Close()
		}
	}
	offerErr := func(err error) {
		select {
		case errCh <- err:
		case <-rzDone:
		}
	}

	// Accept side: higher-ranked peers dial us; the coordinator may too.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: rendezvous over
			}
			go func(conn net.Conn) {
				conn.SetDeadline(deadline)
				v, _, err := wire.ReadFrame(conn, cfg.MaxFrame)
				if err != nil {
					if errors.Is(err, wire.ErrBadFrame) {
						// A frame that arrived but won't decode is almost
						// certainly a peer on another wire-protocol version
						// (the Hello layout itself changes between
						// versions). Ack's encoding is version-stable, so
						// the rejection still reaches them by name.
						wire.WriteFrame(conn, &wire.Ack{Err: fmt.Sprintf(
							"undecodable handshake; this side speaks wire protocol version %d", wire.Version)})
					}
					conn.Close()
					return
				}
				h, ok := v.(*wire.Hello)
				if !ok {
					conn.Close()
					return
				}
				if err := validateHello(h, cfg.World, cfg.ConfigSum); err != nil ||
					(h.Rank != -1 && (h.Rank <= cfg.Rank || h.Rank >= cfg.World)) {
					if err == nil {
						err = fmt.Errorf("unexpected rank %d dialing rank %d", h.Rank, cfg.Rank)
					}
					// Tell the dialer why before hanging up, so its error
					// names the cause instead of a bare EOF.
					wire.WriteFrame(conn, &wire.Ack{Err: err.Error()})
					conn.Close()
					offerErr(fmt.Errorf("transport: rank %d rejected peer: %v", cfg.Rank, err))
					return
				}
				if h.Epoch != cfg.Epoch {
					// Answer with our Hello either way: it carries our epoch,
					// which is all the other side needs to resolve the skew.
					wire.WriteFrame(conn, t.hello())
					conn.Close()
					if h.Epoch > cfg.Epoch {
						// We are the stale incarnation: abort this rendezvous
						// so the rejoin loop can retry at the newer epoch.
						offerErr(&EpochError{Observed: h.Epoch, Stale: cfg.Epoch})
					}
					// A stale dialer was turned away; it will adopt our epoch
					// and redial. Keep listening.
					return
				}
				if _, err := wire.WriteFrame(conn, t.hello()); err != nil {
					conn.Close()
					return
				}
				conn.SetDeadline(time.Time{})
				offerConn(joinConn{rank: h.Rank, conn: conn, hello: *h})
			}(conn)
		}
	}()

	// Dial side: we dial every lower-ranked peer, retrying while it boots.
	for j := 0; j < cfg.Rank; j++ {
		go func(j int) {
			conn, err := dialHandshake(cfg.Addrs[j], t.hello(), deadline, cfg.MaxFrame, func(h *wire.Hello) error {
				if err := validateHello(h, cfg.World, cfg.ConfigSum); err != nil {
					return err
				}
				if h.Rank != j {
					return fmt.Errorf("address %s answered as rank %d, want %d", cfg.Addrs[j], h.Rank, j)
				}
				return checkEpoch(h.Epoch, cfg.Epoch)
			})
			if err != nil {
				offerErr(fmt.Errorf("transport: rank %d dialing rank %d: %w", cfg.Rank, j, err))
				return
			}
			offerConn(joinConn{rank: j, conn: conn})
		}(j)
	}

	need := make(map[int]bool, cfg.World)
	for j := 0; j < cfg.World; j++ {
		if j != cfg.Rank {
			need[j] = true
		}
	}
	var ctrl *Ctrl
	defer close(rzDone)
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(need) > 0 || (cfg.ExpectCtrl && ctrl == nil) {
		select {
		case jc := <-connCh:
			if jc.rank == -1 {
				if !cfg.ExpectCtrl || ctrl != nil {
					jc.conn.Close()
					continue
				}
				ctrl = newCtrl(jc.conn, cfg.MaxFrame)
				ctrl.Peer = jc.hello
				continue
			}
			if !need[jc.rank] {
				jc.conn.Close()
				continue
			}
			delete(need, jc.rank)
			t.addLink(jc.rank, jc.conn)
		case err := <-errCh:
			ln.Close()
			t.Close()
			return nil, nil, err
		case <-timer.C:
			ln.Close()
			t.Close()
			missing := make([]int, 0, len(need))
			for j := range need {
				missing = append(missing, j)
			}
			sort.Ints(missing)
			what := fmt.Sprintf("ranks %v", missing)
			if len(missing) == 0 {
				what = "coordinator control connection"
			}
			return nil, nil, fmt.Errorf("transport: rank %d rendezvous timed out after %v waiting for %s",
				cfg.Rank, cfg.RendezvousTimeout, what)
		}
	}
	// Mesh complete: no further connections are expected on this listener.
	ln.Close()
	<-acceptDone
	return t, ctrl, nil
}

// errRetryHandshake marks a handshake reply that is wrong only transiently
// (a peer still catching up to a newer epoch); the dialer closes the conn,
// sleeps, and redials instead of failing the rendezvous.
var errRetryHandshake = errors.New("transient handshake mismatch")

// checkEpoch applies the epoch-convergence rule from the dialer's side: a
// peer on a newer epoch means we are stale (fatal EpochError — adopt and
// rejoin); a peer on an older epoch is still catching up (retry).
func checkEpoch(peer, mine uint64) error {
	switch {
	case peer == mine:
		return nil
	case peer > mine:
		return &EpochError{Observed: peer, Stale: mine}
	default:
		return fmt.Errorf("%w: peer still at epoch %d, want %d", errRetryHandshake, peer, mine)
	}
}

// dialHandshake dials addr with retry until deadline (exponential backoff
// with deterministic jitter, bounded by the retry budget), sends hello, and
// validates the peer's reply. An ErrIntegrity on the reply — the handshake
// frame was damaged in flight — is retried like any transient fault, never
// confused with the fatal ErrBadFrame version-mismatch signature.
func dialHandshake(addr string, hello *wire.Hello, deadline time.Time, maxFrame int, check func(*wire.Hello) error) (net.Conn, error) {
	var lastErr error
	bo := NewBackoff(addr)
	retry := func(err error) error {
		lastErr = err
		d, ok := bo.Next()
		if !ok {
			return bo.Exhausted(lastErr)
		}
		time.Sleep(d)
		return nil
	}
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = errors.New("rendezvous window elapsed")
			}
			return nil, lastErr
		}
		dialTO := DefaultDialTimeout
		if remain < dialTO {
			dialTO = remain
		}
		conn, err := net.DialTimeout("tcp", addr, dialTO)
		if err != nil {
			if rerr := retry(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		conn.SetDeadline(deadline)
		if _, err := wire.WriteFrame(conn, hello); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		v, _, err := wire.ReadFrame(conn, maxFrame)
		if err != nil {
			conn.Close()
			if errors.Is(err, wire.ErrBadFrame) {
				// The peer answered with bytes we cannot decode: a
				// wire-protocol version mismatch, not a transient boot race.
				return nil, fmt.Errorf("peer handshake undecodable (mismatched wire protocol version? this side speaks %d): %v",
					wire.Version, err)
			}
			if rerr := retry(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		switch reply := v.(type) {
		case *wire.Hello:
			if err := check(reply); err != nil {
				conn.Close()
				if errors.Is(err, errRetryHandshake) {
					if rerr := retry(err); rerr != nil {
						return nil, rerr
					}
					continue
				}
				return nil, err // identity errors are fatal, not retryable
			}
			conn.SetDeadline(time.Time{})
			return conn, nil
		case *wire.Ack:
			conn.Close()
			return nil, fmt.Errorf("peer rejected handshake: %s", reply.Err)
		default:
			conn.Close()
			return nil, fmt.Errorf("peer answered handshake with %T", v)
		}
	}
}

// addLink registers an established peer connection and starts its reader
// and heartbeat goroutines.
func (t *TCP) addLink(peer int, conn net.Conn) {
	l := &link{peer: peer, conn: conn, downCh: make(chan struct{}),
		onDown: func(peer int, cause error) {
			t.events.publish(FailureEvent{Peer: peer, Cause: cause})
		}}
	t.links[peer] = l
	ch := make(chan any, 64)
	t.inbox[peer] = ch
	go t.readLoop(l, ch)
	go t.heartbeatLoop(l)
}

// readLoop decodes frames off one link into its inbox. Heartbeats are
// dropped here, invisible to receivers. A read error (peer crash, conn
// reset, transport close, or a CRC32C integrity failure) downs the link.
// Every frame read re-arms the liveness deadline: a peer that heartbeats is
// alive, one silent for the full miss window (HeartbeatMisses periods) is
// declared dead right here rather than at the next ring pass. Frames are
// read into the link's one body buffer, and KV, query and output blocks are
// decoded into the transport's spares and lent to the rank.
func (t *TCP) readLoop(l *link, ch chan any) {
	window := t.cfg.missWindow()
	rd := wire.Reader{Spares: t.spares}
	for {
		if window > 0 {
			l.conn.SetReadDeadline(time.Now().Add(window))
		}
		v, n, err := rd.ReadFrame(l.conn, t.cfg.MaxFrame)
		if err != nil {
			var ne net.Error
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("peer rank %d closed the connection", l.peer)
			} else if errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("peer rank %d missed %d heartbeats (%v silent)",
					l.peer, t.cfg.HeartbeatMisses, window)
			} else if errors.Is(err, wire.ErrIntegrity) {
				err = fmt.Errorf("frame from rank %d failed integrity check: %w", l.peer, err)
			}
			l.markDown(err)
			return
		}
		atomic.AddInt64(&l.inMsgs, 1)
		atomic.AddInt64(&l.inBytes, int64(n))
		if _, hb := v.(*wire.Heartbeat); hb {
			continue
		}
		if wire.Recyclable(v) {
			t.loans.lend(v)
		}
		select {
		case ch <- v:
		case <-t.closedCh:
			return
		}
	}
}

// heartbeatLoop keeps the link observably alive: a frame every
// HeartbeatEvery means a crashed or wedged peer surfaces as a write error
// (downing the link) within the miss window instead of only at the next
// ring pass.
func (t *TCP) heartbeatLoop(l *link) {
	writeWindow := t.cfg.missWindow()
	if writeWindow <= 0 {
		writeWindow = 2 * t.cfg.HeartbeatEvery
	}
	tick := time.NewTicker(t.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			l.wmu.Lock()
			l.conn.SetWriteDeadline(time.Now().Add(writeWindow))
			n, err := l.w.WriteFrame(l.conn, &wire.Heartbeat{}) //cplint:allow lock-send heartbeat shares the write-serialization mutex; bounded by the write deadline above
			l.wmu.Unlock()
			countSent(&l.outMsgs, &l.outBytes, n, err)
			if err != nil {
				// A timed-out write may sit half-flushed on the stream;
				// framing is gone either way, so the link dies.
				l.markDown(err)
				return
			}
		case <-l.downCh:
			return
		case <-t.closedCh:
			return
		}
	}
}

// Ctrl is a framed control connection between the coordinator and one
// worker rank, carrying command/result frames with the same codec as the
// data plane.
type Ctrl struct {
	conn     net.Conn
	maxFrame int
	wmu      sync.Mutex
	w        wire.Writer // Send's frame buffer, used under wmu
	rd       wire.Reader // Recv's body buffer: one goroutine reads a Ctrl
	Peer     wire.Hello  // the remote end's handshake

	outMsgs, outBytes int64
	inMsgs, inBytes   int64
}

func newCtrl(conn net.Conn, maxFrame int) *Ctrl {
	return &Ctrl{conn: conn, maxFrame: maxFrame}
}

// DialCtrl connects the coordinator's control plane to one worker: sends
// hello (rank -1), waits for the worker's identity reply, and retries while
// the worker is still meshing. The worker must answer as expectRank.
func DialCtrl(addr string, hello *wire.Hello, expectRank int, timeout time.Duration) (*Ctrl, error) {
	if timeout <= 0 {
		timeout = DefaultRendezvousTimeout
	}
	if hello.Epoch == 0 {
		h := *hello
		h.Epoch = 1 // same normalization Join applies to TCPConfig.Epoch
		hello = &h
	}
	deadline := time.Now().Add(timeout)
	var peer wire.Hello
	conn, err := dialHandshake(addr, hello, deadline, wire.DefaultMaxFrame, func(h *wire.Hello) error {
		if err := validateHello(h, hello.World, hello.ConfigSum); err != nil {
			return err
		}
		if h.Rank != expectRank {
			return fmt.Errorf("address %s answered as rank %d, want %d", addr, h.Rank, expectRank)
		}
		if err := checkEpoch(h.Epoch, hello.Epoch); err != nil {
			// A worker on a newer epoch means this coordinator is stale; the
			// EpochError tells ConnectCluster which epoch to redial at.
			return err
		}
		peer = *h
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("transport: control dial %s: %w", addr, err)
	}
	c := newCtrl(conn, wire.DefaultMaxFrame)
	c.Peer = peer
	return c, nil
}

// Send writes one command/result frame.
func (c *Ctrl) Send(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n, err := c.w.WriteFrame(c.conn, v) //cplint:allow lock-send wmu exists to serialize control-channel frame writes
	countSent(&c.outMsgs, &c.outBytes, n, err)
	return err
}

// Recv reads the next frame; timeout 0 blocks indefinitely (a worker idling
// between commands). io.EOF reports an orderly peer shutdown. Only a frame
// read in full counts toward WireTotals. One goroutine receives at a time.
func (c *Ctrl) Recv(timeout time.Duration) (any, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.conn.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	v, n, err := c.rd.ReadFrame(c.conn, c.maxFrame)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&c.inMsgs, 1)
	atomic.AddInt64(&c.inBytes, int64(n))
	return v, nil
}

// WireTotals returns the control link's cumulative frame and byte counts,
// both directions combined.
func (c *Ctrl) WireTotals() (msgs, bytes int64) {
	return atomic.LoadInt64(&c.outMsgs) + atomic.LoadInt64(&c.inMsgs),
		atomic.LoadInt64(&c.outBytes) + atomic.LoadInt64(&c.inBytes)
}

// Close hangs up the control connection.
func (c *Ctrl) Close() error { return c.conn.Close() }
