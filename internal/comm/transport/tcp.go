package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
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

// The heartbeat settings CheckHeartbeat rejects.
var (
	ErrNegativeHeartbeat = errors.New("transport: heartbeat interval must not be negative (0 takes the default)")
	ErrOneMissWindow     = errors.New("transport: heartbeat miss threshold must be >= 2 (or < 0 to disable), got 1")
)

// CheckHeartbeat validates a heartbeat period and miss threshold, the one
// liveness rule every connection and both commands apply. A zero of either
// takes its default and a negative threshold disables the read deadline, but
// a negative period is an error, and so is a one-period window: it races the
// sender's own ticker, so a healthy idle link would flap. Two periods is the
// tightest sound threshold.
func CheckHeartbeat(every time.Duration, misses int) error {
	if every < 0 {
		return ErrNegativeHeartbeat
	}
	if misses == 1 {
		return ErrOneMissWindow
	}
	return nil
}

// TCPConfig parameterizes one rank's entry into a TCP mesh, and (DialCtrl)
// the coordinator's connections to the ranks.
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
	// HeartbeatEvery is the idle-link heartbeat period: 0 takes the 500ms
	// default, and a negative period is rejected (CheckHeartbeat).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is the liveness miss threshold: a link that delivers
	// no frame for HeartbeatMisses consecutive heartbeat periods is downed
	// with a named cause (straggler or dead peer). Negative disables
	// read-side liveness; 0 means DefaultHeartbeatMisses; 1 is rejected.
	HeartbeatMisses int
}

// missWindow is the read-idle deadline: how long a link may stay silent
// before it is declared dead. Zero disables it.
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
	return c.liveness()
}

// liveness validates and defaults what both ends of every connection use:
// the heartbeat settings, the rendezvous deadline and the epoch.
func (c *TCPConfig) liveness() error {
	if err := CheckHeartbeat(c.HeartbeatEvery, c.HeartbeatMisses); err != nil {
		return err
	}
	if c.RendezvousTimeout <= 0 {
		c.RendezvousTimeout = DefaultRendezvousTimeout
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	return nil
}

// link is one framed connection, and the only kind this package has: a mesh
// link between two ranks (one conn per unordered pair, carrying both
// directions) or, inside a Ctrl, the control connection between the
// coordinator and one worker. Each end runs its own link with its own
// liveness settings.
type link struct {
	peer   int // the far end's rank; -1 is the coordinator
	conn   net.Conn
	every  time.Duration // heartbeat period; 0 sends none
	beat   time.Duration // bounds each heartbeat write; 0: no bound
	window time.Duration // how long the far end may stay silent; 0: no limit

	// spares and loans recycle the KV, query and output blocks the reader
	// decodes (mesh links only). events receives the link's death and every
	// FailureNote the far end sends; nil drops both.
	spares *wire.Spares
	loans  *loans
	events *eventSink

	wmu sync.Mutex  // serializes frame writes (sender + heartbeat)
	w   wire.Writer // the link's frame buffer, used under wmu

	// inbox holds the frames the reader decoded, in order. The reader closes
	// it when it exits, which is after the link is down.
	inbox  chan any
	rtimer *time.Timer // bounds recv's wait

	downOnce sync.Once
	downCh   chan struct{}
	cause    atomic.Value   // error
	running  sync.WaitGroup // the reader and the heartbeat

	outMsgs, outBytes int64 // atomics: frames/bytes written
	inMsgs, inBytes   int64 // atomics: frames/bytes read
	tapSeq            int64 // atomic: data frames offered to the frame tap
}

// readBufSize sizes a link's read buffer to hold a decode step's frames:
// a B = 8 query block of the benchmark's 8 heads of 32 is 8 KiB.
const readBufSize = 16 << 10

// start runs the link: its reader, and its heartbeat when it sends one.
func (l *link) start() {
	l.inbox = make(chan any, 64)
	l.downCh = make(chan struct{})
	l.running.Add(1)
	go l.readLoop()
	if l.every > 0 {
		l.running.Add(1)
		go l.heartbeatLoop()
	}
}

func (l *link) markDown(err error) {
	l.downOnce.Do(func() {
		if err == nil {
			err = errors.New("connection closed")
		}
		l.cause.Store(err)
		close(l.downCh)
		l.conn.Close()
		l.events.publish(FailureEvent{Peer: l.peer, Cause: err})
	})
}

// name is how a cause names the far end.
func (l *link) name() string {
	if l.peer < 0 {
		return "the coordinator"
	}
	return fmt.Sprintf("peer rank %d", l.peer)
}

// hangup names a socket error that means the far end closed its side — the
// reader's EOF, or the EPIPE or ECONNRESET a write meets when it gets there
// first — with one cause that matches io.EOF, whichever goroutine saw it.
// Any other error is returned as it is.
func (l *link) hangup(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) {
		return fmt.Errorf("%s closed the connection: %w", l.name(), io.EOF)
	}
	return err
}

func (l *link) downCause() error {
	if err, ok := l.cause.Load().(error); ok {
		return err
	}
	return nil
}

// send encodes payload as one frame into the link's buffer and writes it,
// through tap when one is set; timeout bounds the write (0: no bound), and
// wmu serializes it with the heartbeat's. A payload that does not encode is
// an error that leaves the link up: nothing reached the stream. Any write
// error — timeouts included — may have left a partial frame on the stream;
// the framing is unrecoverable, so the link dies either way. Timeouts still
// surface as ErrTimeout.
func (l *link) send(payload any, timeout time.Duration, tap *FrameTap) error {
	select {
	case <-l.downCh:
		return failWith(ErrLinkFailed, l.downCause())
	default:
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	frame, err := l.w.Frame(payload)
	if err != nil {
		return err
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := l.conn.SetWriteDeadline(deadline); err != nil {
		return failWith(ErrLinkFailed, err)
	}
	var n int
	if tap != nil {
		n, err = l.sendTapped(frame, *tap)
	} else {
		n, err = l.conn.Write(frame) //cplint:allow lock-send wmu exists to serialize frame writes (sender and heartbeat); a stalled write kills the link via its deadline
	}
	countSent(&l.outMsgs, &l.outBytes, n, err)
	if err == nil {
		return nil
	}
	err = l.hangup(err)
	l.markDown(err)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return failWith(ErrTimeout, err)
	}
	return failWith(ErrLinkFailed, err)
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

// sendTapped routes one encoded frame through the frame tap and writes
// whatever it returns. Called with l.wmu held.
func (l *link) sendTapped(frame []byte, tap FrameTap) (int, error) {
	seq := atomic.AddInt64(&l.tapSeq, 1) - 1
	total := 0
	for _, f := range tap(l.peer, seq, frame) {
		n, err := l.conn.Write(f)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// recv returns the link's next frame, waiting up to timeout (0: without
// bound). Frames read before the link died are still returned; after them a
// dead link fails at once with its cause instead of burning the timeout. One
// goroutine receives from a link at a time, and Go 1.23+ timers deliver
// nothing stale after Stop or Reset, so one timer serves every wait.
func (l *link) recv(timeout time.Duration) (any, error) {
	var v any
	ok := true
	select {
	case v, ok = <-l.inbox:
	default:
		var expired <-chan time.Time
		if timeout > 0 {
			if l.rtimer == nil {
				l.rtimer = time.NewTimer(timeout)
			} else {
				l.rtimer.Reset(timeout)
			}
			defer l.rtimer.Stop()
			expired = l.rtimer.C
		}
		select {
		case v, ok = <-l.inbox:
		case <-expired:
			return nil, ErrTimeout
		}
	}
	if !ok {
		return nil, failWith(ErrLinkFailed, l.downCause())
	}
	return v, nil
}

// readLoop decodes frames off the link into its inbox. Control frames never
// reach it: a heartbeat only proves the far end alive, and a FailureNote is
// published as a FailureEvent. A read error (peer crash, conn reset, local
// close, or a CRC32C integrity failure) downs the link. With a window, every
// frame re-arms the read deadline: a far end that heartbeats is alive, and
// one silent for the whole window is declared dead right here rather than
// at the next receive. Frames are read into the reader's one body buffer,
// and KV, query and output blocks are decoded into the spares and lent. The
// socket is read through a buffer of readBufSize, so a frame that fits it
// costs one read call, header and body together, and frames that arrived
// together cost one between them; a larger block's body bypasses it.
func (l *link) readLoop() {
	defer l.running.Done()
	defer close(l.inbox)
	rd := wire.Reader{Spares: l.spares}
	in := bufio.NewReaderSize(l.conn, readBufSize)
	for {
		if l.window > 0 {
			l.conn.SetReadDeadline(time.Now().Add(l.window))
		}
		v, n, err := rd.ReadFrame(in, wire.DefaultMaxFrame)
		if err != nil {
			err = l.hangup(err)
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				err = fmt.Errorf("%s silent for %v, its heartbeat miss window", l.name(), l.window)
			case errors.Is(err, wire.ErrIntegrity):
				err = fmt.Errorf("frame from %s failed integrity check: %w", l.name(), err)
			}
			l.markDown(err)
			return
		}
		atomic.AddInt64(&l.inMsgs, 1)
		atomic.AddInt64(&l.inBytes, int64(n))
		switch f := v.(type) {
		case *wire.Heartbeat:
			continue
		case *wire.FailureNote:
			l.events.publish(FailureEvent{Peer: f.Rank, Cause: fmt.Errorf("worker reported: %s", f.Cause)})
			continue
		}
		if l.loans != nil && wire.Recyclable(v) {
			l.loans.lend(v)
		}
		select {
		case l.inbox <- v:
		case <-l.downCh:
			return
		}
	}
}

// heartbeatLoop keeps the link observably alive: a frame every period means
// a crashed or wedged far end surfaces as a write error (downing the link)
// instead of only at the next exchange, and the far end's read window sees
// a live link. Heartbeats never pass through the frame tap.
func (l *link) heartbeatLoop() {
	defer l.running.Done()
	tick := time.NewTicker(l.every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if l.send(&wire.Heartbeat{}, l.beat, nil) != nil {
				return
			}
		case <-l.downCh:
			return
		}
	}
}

// TCP is the multi-process transport: this process hosts exactly one rank,
// connected to every peer rank by a TCP connection carrying wire-codec
// frames.
type TCP struct {
	cfg    TCPConfig
	links  map[int]*link
	inject failMap
	events *eventSink
	tap    atomic.Pointer[FrameTap]

	// spares holds the KV, query and output blocks the rank handed back
	// (Recycle), which the links' readers decode later frames into; loans
	// are the blocks the readers handed the rank and it may hand back.
	spares *wire.Spares
	loans  loans
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
// buffer and writes it to the peer, through the frame tap when one is set.
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
	return l.send(payload, timeout, t.tap.Load())
}

// Recv implements Transport: returns the next decoded frame from src.
// Buffered frames are drained even after the link dies; once empty, a dead
// link fails immediately instead of burning the whole timeout.
func (t *TCP) Recv(dst, src int, timeout time.Duration) (any, error) {
	if dst != t.cfg.Rank {
		return nil, fmt.Errorf("transport: rank %d is not hosted by this process (local %d)", dst, t.cfg.Rank)
	}
	l := t.links[src]
	if l == nil {
		return nil, failWith(ErrLinkFailed, fmt.Errorf("no link from rank %d", src))
	}
	return l.recv(timeout)
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
func (t *TCP) Waiting(dst, src int) bool {
	l := t.links[src]
	return l != nil && len(l.inbox) > 0
}

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

// Close implements Transport. It returns once every link's goroutines have.
func (t *TCP) Close() error {
	// Silence the event sink first: an orderly local close is not a peer
	// failure, and the links downed below must not publish one.
	t.events.close()
	for _, l := range t.links {
		l.markDown(errors.New("transport closed"))
		l.running.Wait() // both exit once the link is down
	}
	return nil
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
	rank int // -1 for the coordinator control connection
	conn net.Conn
}

// Join forms the mesh: listens for higher-ranked peers (and, with
// ExpectCtrl, the coordinator), dials lower-ranked peers with retry, and
// returns once every expected connection is up with readers and heartbeats
// running. The returned Ctrl is nil unless ExpectCtrl is set; it heartbeats
// every HeartbeatEvery and never times out a read.
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
		cfg:    cfg,
		links:  make(map[int]*link),
		inject: newFailMap(),
		events: newEventSink(2 * cfg.World),
		spares: wire.NewSpares(spares),
		loans:  loans{out: make([]any, 0, 3*spares)},
	}
	hello := &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: cfg.World,
		Rank: cfg.Rank, ConfigSum: cfg.ConfigSum, Epoch: cfg.Epoch}
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
				v, _, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
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
					wire.WriteFrame(conn, hello)
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
				if _, err := wire.WriteFrame(conn, hello); err != nil {
					conn.Close()
					return
				}
				conn.SetDeadline(time.Time{})
				offerConn(joinConn{rank: h.Rank, conn: conn})
			}(conn)
		}
	}()

	// Dial side: we dial every lower-ranked peer, retrying while it boots.
	for j := 0; j < cfg.Rank; j++ {
		go func(j int) {
			conn, err := dialHandshake(cfg.Addrs[j], hello, deadline, nil, func(h *wire.Hello) error {
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
	fail := func(err error) (*TCP, *Ctrl, error) {
		ln.Close()
		t.Close()
		if ctrl != nil {
			ctrl.Close()
		}
		return nil, nil, err
	}
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
				ctrl = newCtrl(jc.conn, cfg.HeartbeatEvery)
				continue
			}
			if !need[jc.rank] {
				jc.conn.Close()
				continue
			}
			delete(need, jc.rank)
			t.addLink(jc.rank, jc.conn)
		case err := <-errCh:
			return fail(err)
		case <-timer.C:
			missing := make([]int, 0, len(need))
			for j := range need {
				missing = append(missing, j)
			}
			sort.Ints(missing)
			what := fmt.Sprintf("ranks %v", missing)
			if len(missing) == 0 {
				what = "coordinator control connection"
			}
			return fail(fmt.Errorf("transport: rank %d rendezvous timed out after %v waiting for %s",
				cfg.Rank, cfg.RendezvousTimeout, what))
		}
	}
	// Mesh complete: no further connections are expected on this listener.
	ln.Close()
	<-acceptDone
	return t, ctrl, nil
}

// errDialAborted ends a dial that another dial's failure made pointless.
var errDialAborted = errors.New("dial aborted")

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
// confused with the fatal ErrBadFrame version-mismatch signature. Closing
// abort (nil: never) ends the retries with errDialAborted.
func dialHandshake(addr string, hello *wire.Hello, deadline time.Time, abort <-chan struct{}, check func(*wire.Hello) error) (net.Conn, error) {
	var lastErr error
	bo := NewBackoff(addr)
	retry := func(err error) error {
		lastErr = err
		d, ok := bo.Next()
		if !ok {
			return bo.Exhausted(lastErr)
		}
		pause := time.NewTimer(d)
		defer pause.Stop()
		select {
		case <-pause.C:
			return nil
		case <-abort:
			return errDialAborted
		}
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
		v, _, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
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
// and heartbeat.
func (t *TCP) addLink(peer int, conn net.Conn) {
	l := &link{peer: peer, conn: conn, every: t.cfg.HeartbeatEvery, window: t.cfg.missWindow(),
		beat:   max(t.cfg.missWindow(), 2*t.cfg.HeartbeatEvery),
		spares: t.spares, loans: &t.loans, events: t.events}
	t.links[peer] = l
	l.start()
}

// Ctrl is the control connection between the coordinator and one worker
// rank: a link like every mesh link, carrying command and result frames with
// the same codec. The worker's end heartbeats and never times out a read,
// since the coordinator may idle between commands; the coordinator's end
// sends no heartbeat and downs the connection once the worker has been
// silent for its miss window.
type Ctrl struct{ link }

// newCtrl starts the worker's end of a control connection, heartbeating
// every period (0: never).
func newCtrl(conn net.Conn, every time.Duration) *Ctrl {
	c := &Ctrl{link{peer: -1, conn: conn, every: every}}
	c.start()
	return c
}

// DialCtrl connects the coordinator's control plane to every worker in
// cfg.Addrs, where Addrs[i] must answer as rank i of a world of len(Addrs).
// It dials the workers concurrently, so the rendezvous takes as long as the
// slowest worker rather than the sum of them: each gets a Hello as rank -1,
// and a worker still meshing is retried until RendezvousTimeout. A worker on
// a newer epoch fails the dial with an EpochError naming the epoch to redial
// at. The first dial to fail stops the others' retries, and the error names
// its rank; every connection already opened is closed. The heartbeat
// settings mirror the workers': a connection is downed once its worker has
// been silent for HeartbeatMisses periods. Every connection's death, and
// every FailureNote a worker sends, arrives on the returned channel, which
// the connections share and the first Close closes.
func DialCtrl(cfg TCPConfig) ([]*Ctrl, <-chan FailureEvent, error) {
	if err := cfg.liveness(); err != nil {
		return nil, nil, err
	}
	n := len(cfg.Addrs)
	hello := &wire.Hello{Magic: wire.Magic, Version: wire.Version, World: n, Rank: -1,
		ConfigSum: cfg.ConfigSum, Epoch: cfg.Epoch}
	deadline := time.Now().Add(cfg.RendezvousTimeout)
	conns, errs := make([]net.Conn, n), make([]error, n)
	abort := make(chan struct{})
	failed := -1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, addr := range cfg.Addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dialHandshake(addr, hello, deadline, abort, func(h *wire.Hello) error {
				if err := validateHello(h, n, cfg.ConfigSum); err != nil {
					return err
				}
				if h.Rank != i {
					return fmt.Errorf("address %s answered as rank %d, want %d", addr, h.Rank, i)
				}
				return checkEpoch(h.Epoch, cfg.Epoch)
			})
			conns[i], errs[i] = conn, err
			if err != nil {
				mu.Lock()
				if failed < 0 {
					failed = i
					close(abort)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failed >= 0 {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, nil, fmt.Errorf("transport: control dial to rank %d at %s: %w", failed, cfg.Addrs[failed], errs[failed])
	}
	events := newEventSink(n + 2)
	ctrls := make([]*Ctrl, n)
	for i, conn := range conns {
		ctrls[i] = &Ctrl{link{peer: i, conn: conn, window: cfg.missWindow(), events: events}}
		ctrls[i].start()
	}
	return ctrls, events.ch, nil
}

// Send writes one command or result frame. The write has no deadline.
func (c *Ctrl) Send(v any) error { return c.send(v, 0, nil) }

// Recv returns the next command or result frame, waiting up to timeout (0:
// without bound); heartbeats and FailureNotes never arrive here. A prefill
// or decode result is the connection's own frame, reused by the next result
// of its kind (wire.Reader). Once the connection is down and its frames are
// taken, Recv fails at once with ErrLinkFailed and the cause, which matches
// io.EOF when the far end hung up. One goroutine receives at a time.
func (c *Ctrl) Recv(timeout time.Duration) (any, error) { return c.recv(timeout) }

// Frames is the queue Recv takes from, for a caller that waits on it
// alongside other channels. It closes once the connection is down and every
// frame read before has been taken; Err then names the cause.
func (c *Ctrl) Frames() <-chan any { return c.inbox }

// Err is why the connection went down, or nil while it is up.
func (c *Ctrl) Err() error { return c.downCause() }

// WireTotals returns the control link's cumulative frame and byte counts,
// both directions combined. Only frames that moved in full count.
func (c *Ctrl) WireTotals() (msgs, bytes int64) {
	return atomic.LoadInt64(&c.outMsgs) + atomic.LoadInt64(&c.inMsgs),
		atomic.LoadInt64(&c.outBytes) + atomic.LoadInt64(&c.inBytes)
}

// Close hangs up the control connection and returns once its goroutines
// have. It closes the failure channel first, so a local hangup is never
// reported as a failure.
func (c *Ctrl) Close() error {
	c.events.close()
	c.markDown(errors.New("connection closed locally"))
	c.running.Wait()
	return nil
}
