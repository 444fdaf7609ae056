package transformer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/trace"
)

// DefaultCtrlTimeout bounds how long the coordinator waits for a worker's
// result frame. It must comfortably exceed the workers' ring receive
// timeout, so a mid-ring fault surfaces as the workers' own link/timeout
// errors (attributable to a rank pair) rather than a bare control-plane
// deadline.
const DefaultCtrlTimeout = 2 * comm.DefaultRecvTimeout

// ConnectConfig parameterizes a coordinator's connection to a worker mesh.
type ConnectConfig struct {
	// Addrs lists every worker rank's control address; Addrs[i] must answer
	// as rank i. World size is len(Addrs).
	Addrs []string
	// KVCapacity must match the workers' -kv-capacity flag; it participates
	// in the rendezvous config digest.
	KVCapacity int
	// Epoch is the cluster incarnation to dial at (0 = 1). If a worker
	// answers from a newer epoch — this coordinator restarted while the
	// workers kept rejoining — the dial adopts the observed epoch and
	// retries, so a rolling coordinator restart converges without flags.
	Epoch uint64
	// DialTimeout bounds the control-plane rendezvous (workers may still be
	// meshing when the coordinator starts). Default 15s.
	DialTimeout time.Duration
	// RecvTimeout is the workers' ring receive deadline (their
	// -recv-timeout flag). It does not configure the workers — it informs
	// the default CtrlTimeout, which must exceed the ring deadline so a
	// mid-ring stall surfaces as the workers' own rank-attributed errors
	// rather than a bare control-plane deadline.
	RecvTimeout time.Duration
	// CtrlTimeout bounds each per-command worker reply. Default: twice
	// RecvTimeout when set, else DefaultCtrlTimeout.
	CtrlTimeout time.Duration
	// HeartbeatEvery / HeartbeatMisses mirror the workers' liveness settings
	// on the control plane: workers heartbeat their control connection every
	// HeartbeatEvery, and the coordinator's readers declare a worker dead
	// after HeartbeatMisses silent periods. Zero values take the transport
	// defaults (500ms x 3); HeartbeatMisses < 0 disables the idle deadline
	// (a dead worker then surfaces only when its connection drops).
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// Trace, when non-nil, is the coordinator's cumulative trace store;
	// Cluster.SyncTrace drains every worker's staged spans and series deltas
	// into it. Nil disables coordinator-side trace collection (workers still
	// stage, but nothing drains them).
	Trace *trace.Recorder
}

// ConfigSum digests everything two processes must agree on before forming a
// cluster: the full transformer configuration (weights seed included), the
// world size, the KV capacity, and the wire-protocol version. Workers and
// coordinator exchange it in the Hello handshake; a mismatch fails
// rendezvous with a named cause instead of surfacing later as skewed
// logits.
func ConfigSum(cfg Config, world, kvCapacity int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v|world=%d|kv=%d|wire=%d", cfg, world, kvCapacity, wire.Version)
	return h.Sum64()
}

// remotePlane is the coordinator's control plane: one framed connection per
// worker rank, carrying command/result frames in lockstep with the
// cluster's (single-threaded) command stream.
//
// Replies are matched to commands purely by stream order, so the plane is
// sound only while every command gets exactly one reply. Any broadcast
// failure — a send error (some workers may have received the command,
// others not) or a reply timeout (the late reply would alias the next
// command's) — therefore poisons the plane permanently: every subsequent
// command fails fast with the original cause instead of silently reading
// desynchronized or divergent rank state. Recovery happens by rebuilding a
// fresh plane on a new epoch (Cluster.Rebuild), never by reviving this one.
//
// Each control connection has a dedicated reader goroutine, for two
// reasons: a dead worker is detected the moment its connection drops (even
// while the coordinator is idle between commands), and workers may send
// unsolicited FailureNote frames — filtered here, like heartbeats in the
// data plane — without ever aliasing a command's reply.
type remotePlane struct {
	ctrls   []*transport.Ctrl
	replies []chan any      // reader -> bcast reply handoff, per rank
	down    []chan struct{} // closed by the reader on exit; downErr[r] is set first
	downErr []error
	events  chan transport.FailureEvent

	readers    sync.WaitGroup
	closed     chan struct{} // closed at hangup; unblocks reader handoff
	hangupOnce sync.Once

	timeout time.Duration
	idle    time.Duration // reader idle deadline (heartbeat miss window)
	dead    error
	// timer bounds recvReply's wait. The command stream is single-threaded,
	// and Go 1.23+ timers deliver nothing stale after Stop or Reset, so one
	// timer serves every reply.
	timer *time.Timer
}

// connectPlane dials every worker's control address at the given epoch. On
// an EpochError (the workers are ahead of us) it reports the observed epoch
// so the caller can adopt it and retry.
func connectPlane(w *Weights, cfg ConnectConfig, epoch uint64) (*remotePlane, error) {
	n := len(cfg.Addrs)
	hello := &wire.Hello{
		Magic: wire.Magic, Version: wire.Version, World: n, Rank: -1,
		ConfigSum: ConfigSum(w.Cfg, n, cfg.KVCapacity),
		Epoch:     epoch,
	}
	every := cfg.HeartbeatEvery
	if every <= 0 {
		every = transport.DefaultHeartbeatEvery
	}
	misses := cfg.HeartbeatMisses
	if misses == 0 {
		misses = transport.DefaultHeartbeatMisses
	}
	if misses == 1 {
		// A one-period window races the sender's ticker and flaps on healthy
		// links — same rule TCPConfig enforces.
		return nil, errors.New("transformer: heartbeat miss threshold must be >= 2 (or < 0 to disable)")
	}
	var idle time.Duration
	if misses > 0 {
		idle = time.Duration(misses) * every
	}
	plane := &remotePlane{
		timeout: cfg.CtrlTimeout,
		idle:    idle,
		closed:  make(chan struct{}),
		events:  make(chan transport.FailureEvent, n+2),
	}
	for i, addr := range cfg.Addrs {
		ctrl, err := transport.DialCtrl(addr, hello, i, cfg.DialTimeout)
		if err != nil {
			plane.hangup()
			return nil, fmt.Errorf("transformer: connecting rank %d: %w", i, err)
		}
		plane.ctrls = append(plane.ctrls, ctrl)
	}
	plane.replies = make([]chan any, n)
	plane.down = make([]chan struct{}, n)
	plane.downErr = make([]error, n)
	for r := range plane.ctrls {
		plane.replies[r] = make(chan any)
		plane.down[r] = make(chan struct{})
		plane.readers.Add(1)
		go plane.readLoop(r)
	}
	return plane, nil
}

// dialPlane runs connectPlane with epoch adoption: if the workers answer
// from a newer epoch (this coordinator is the one that restarted), redial at
// the observed epoch. Returns the plane and the epoch it actually joined.
func dialPlane(w *Weights, cfg ConnectConfig, epoch uint64) (plane, uint64, error) {
	for tries := 0; ; tries++ {
		p, err := connectPlane(w, cfg, epoch)
		var eErr *transport.EpochError
		if err != nil && errors.As(err, &eErr) && tries < 4 {
			epoch = eErr.Observed
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		return p, epoch, nil
	}
}

// ConnectCluster dials a worker mesh and returns a distributed Cluster: the
// coordinator hosts no ranks, drives the workers' engines through command
// frames, and assembles their results. The weights are the coordinator's
// replica — workers built their own from the same configuration, and the
// handshake digest guarantees they match.
func ConnectCluster(w *Weights, cfg ConnectConfig) (*Cluster, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("transformer: distributed cluster needs worker addresses")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = transport.DefaultRendezvousTimeout
	}
	if cfg.CtrlTimeout <= 0 {
		if cfg.RecvTimeout > 0 {
			cfg.CtrlTimeout = 2 * cfg.RecvTimeout
		} else {
			cfg.CtrlTimeout = DefaultCtrlTimeout
		}
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	return newCluster(w, len(cfg.Addrs), cfg.KVCapacity, cfg.Trace, cfg.Epoch, func(epoch uint64) (plane, uint64, error) {
		return dialPlane(w, cfg, epoch)
	})
}

// readLoop drains one worker's control connection: replies are handed to the
// in-flight bcast, FailureNotes become failure events, and a dead connection
// downs the rank with its cause.
func (p *remotePlane) readLoop(r int) {
	defer p.readers.Done()
	for {
		// The idle deadline is the heartbeat miss window: workers heartbeat
		// their control connection, so a silent one is wedged or dead, not
		// merely quiet between commands.
		v, err := p.ctrls[r].Recv(p.idle)
		if err != nil {
			var ne net.Error
			if p.idle > 0 && errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("worker rank %d silent past the heartbeat window (%v): %w", r, p.idle, err)
			}
			p.downErr[r] = err
			close(p.down[r])
			p.pushEvent(transport.FailureEvent{Peer: r, Cause: err})
			return
		}
		if _, ok := v.(*wire.Heartbeat); ok {
			continue // liveness only; resets the read deadline above
		}
		if note, ok := v.(*wire.FailureNote); ok {
			p.pushEvent(transport.FailureEvent{Peer: note.Rank,
				Cause: fmt.Errorf("worker reported: %s", note.Cause)})
			continue
		}
		select {
		case p.replies[r] <- v:
		case <-p.closed:
			return
		}
	}
}

// pushEvent publishes without blocking; the plane may be torn down while a
// reader still holds an event, so a full or abandoned channel drops it (the
// consumer already has failure signals pending). Send-after-close is
// impossible by ordering, not by a guard: pushEvent is called only from
// readLoop goroutines, and hangup closes p.events only after
// p.readers.Wait() — keep it that way (or switch to a closed-guarded sink)
// if another publisher is ever added.
func (p *remotePlane) pushEvent(ev transport.FailureEvent) {
	select {
	case p.events <- ev:
	default:
	}
}

func (p *remotePlane) failures() <-chan transport.FailureEvent { return p.events }

func (p *remotePlane) hangup() {
	p.hangupOnce.Do(func() {
		close(p.closed)
		for _, c := range p.ctrls {
			if c != nil {
				c.Close()
			}
		}
		p.readers.Wait()
		close(p.events)
	})
}

// recvReply waits for rank r's next reply frame. A reply the reader is
// already offering is taken without arming the timer.
func (p *remotePlane) recvReply(r int) (any, error) {
	select {
	case v := <-p.replies[r]:
		return v, nil
	default:
	}
	if p.timer == nil {
		p.timer = time.NewTimer(p.timeout)
	} else {
		p.timer.Reset(p.timeout)
	}
	defer p.timer.Stop()
	select {
	case v := <-p.replies[r]:
		return v, nil
	case <-p.down[r]:
		return nil, p.downErr[r]
	case <-p.timer.C:
		return nil, fmt.Errorf("timed out after %v", p.timeout)
	}
}

// bcast sends cmd to every worker, then collects one reply per worker.
// Sends complete before any reply is awaited: a ring pass needs all ranks
// running, so a worker must never wait on a peer whose command is still
// queued behind our slow reply read.
func (p *remotePlane) bcast(cmd any) ([]any, error) {
	if p.dead != nil {
		return nil, fmt.Errorf("transformer: control plane is down: %w", p.dead)
	}
	for r, c := range p.ctrls {
		if err := c.Send(cmd); err != nil {
			return nil, p.poison(fmt.Errorf("transformer: control send to rank %d: %w", r, err))
		}
	}
	out := make([]any, len(p.ctrls))
	for r := range p.ctrls {
		v, err := p.recvReply(r)
		if err != nil {
			return nil, p.poison(fmt.Errorf("transformer: control reply from rank %d: %w", r, err))
		}
		out[r] = v
	}
	return out, nil
}

// poison marks the plane dead with its first fatal error and hangs up, so a
// stale in-flight reply can never be read as a later command's result.
func (p *remotePlane) poison(err error) error {
	if p.dead == nil {
		p.dead = err
		p.hangup()
	}
	return err
}

// local adds the control plane's own traffic, as coordinator->worker links.
func (p *remotePlane) local(tel *Telemetry) {
	tel.Transport = "tcp"
	for r, c := range p.ctrls {
		msgs, bytes := c.WireTotals()
		tel.Links = append(tel.Links, wire.LinkStat{Src: -1, Dst: r, WireMsgs: msgs, WireBytes: bytes})
	}
}

// close shuts the workers down (best effort) and hangs up the control
// plane.
func (p *remotePlane) close() error {
	if p.dead != nil {
		return nil // already poisoned and hung up
	}
	var firstSendErr error
	for _, c := range p.ctrls {
		if err := c.Send(&wire.ShutdownCmd{}); err != nil && firstSendErr == nil {
			firstSendErr = err
		}
	}
	for r := range p.ctrls {
		// Give each worker a moment to ack so its serve loop exits cleanly,
		// but never block shutdown on a wedged or already-gone peer: a
		// missing ack is not an error at teardown.
		timer := time.NewTimer(2 * time.Second)
		select {
		case <-p.replies[r]:
		case <-p.down[r]:
		case <-timer.C:
		}
		timer.Stop()
	}
	p.hangup()
	// Mark the plane closed so later operations fail fast with a named
	// cause and a second Close is a no-op.
	p.dead = errors.New("cluster closed")
	return firstSendErr
}
