package transformer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// DefaultCtrlTimeout bounds how long the coordinator waits for a worker's
// result frame when ConnectConfig.RecvTimeout is unset; otherwise the bound
// is twice RecvTimeout. Either way it must comfortably exceed the workers'
// ring receive timeout, so a mid-ring fault surfaces as the workers' own
// link/timeout errors (attributable to a rank pair) rather than a bare
// control-plane deadline.
const DefaultCtrlTimeout = 2 * comm.DefaultRecvTimeout

// ConnectConfig parameterizes a coordinator's connection to a worker mesh.
// The coordinator dials at epoch 1; if a worker answers from a newer epoch —
// this coordinator restarted while the workers kept rejoining — the dial
// adopts the observed epoch and retries, so a rolling coordinator restart
// converges without flags.
type ConnectConfig struct {
	// Addrs lists every worker rank's control address; Addrs[i] must answer
	// as rank i. World size is len(Addrs).
	Addrs []string
	// KVCapacity must match the workers' -kv-capacity flag; it participates
	// in the rendezvous config digest.
	KVCapacity int
	// DialTimeout bounds the control-plane rendezvous with each worker
	// (workers may still be meshing when the coordinator starts). Default
	// 15s.
	DialTimeout time.Duration
	// RecvTimeout is the workers' ring receive deadline (their
	// -recv-timeout flag). It does not configure the workers: each
	// per-command reply is awaited for twice RecvTimeout, else
	// DefaultCtrlTimeout, so a mid-ring stall surfaces as the workers' own
	// rank-attributed errors rather than a bare control-plane deadline.
	RecvTimeout time.Duration
	// HeartbeatEvery / HeartbeatMisses mirror the workers' liveness settings
	// on the control plane: workers heartbeat their control connection every
	// HeartbeatEvery, and the coordinator declares a worker dead after
	// HeartbeatMisses silent periods. Zero values take the transport
	// defaults (500ms x 3); HeartbeatMisses < 0 disables the idle deadline
	// (a dead worker then surfaces only when its connection drops).
	// transport.CheckHeartbeat rejects a negative period and one miss.
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

// remotePlane is the coordinator's control plane: one transport.Ctrl per
// worker rank, carrying command/result frames in lockstep with the
// cluster's (single-threaded) command stream. Each connection's reader keeps
// heartbeats and FailureNotes out of the reply stream, downs a worker that
// hangs up or stays silent past the miss window, and publishes both on the
// plane's failure channel, even while the coordinator idles between
// commands.
//
// Replies are matched to commands purely by stream order, so the plane is
// sound only while every command gets exactly one reply. Any broadcast
// failure — a send error (some workers may have received the command,
// others not) or a reply timeout (the late reply would alias the next
// command's) — therefore poisons the plane permanently: every subsequent
// command fails fast with the original cause instead of silently reading
// desynchronized or divergent rank state. Recovery happens by rebuilding a
// fresh plane on a new epoch (Cluster.Rebuild), never by reviving this one.
type remotePlane struct {
	ctrls   []*transport.Ctrl
	events  <-chan transport.FailureEvent
	timeout time.Duration // per-command reply deadline
	dead    error
	replies []any // reused across bcasts; see plane.bcast
}

// dialPlane dials every worker's control address at the given epoch. If
// the workers answer from a newer epoch (this coordinator is the one that
// restarted), it redials at the observed epoch. Returns the plane and the
// epoch it actually joined.
func dialPlane(w *Weights, cfg ConnectConfig, epoch uint64) (plane, uint64, error) {
	timeout := DefaultCtrlTimeout
	if cfg.RecvTimeout > 0 {
		timeout = 2 * cfg.RecvTimeout
	}
	for tries := 0; ; tries++ {
		ctrls, events, err := transport.DialCtrl(transport.TCPConfig{
			Addrs:             cfg.Addrs,
			ConfigSum:         ConfigSum(w.Cfg, len(cfg.Addrs), cfg.KVCapacity),
			Epoch:             epoch,
			RendezvousTimeout: cfg.DialTimeout,
			HeartbeatEvery:    cfg.HeartbeatEvery,
			HeartbeatMisses:   cfg.HeartbeatMisses,
		})
		var eErr *transport.EpochError
		if errors.As(err, &eErr) && tries < 4 {
			epoch = eErr.Observed
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("transformer: connecting the workers: %w", err)
		}
		return &remotePlane{ctrls: ctrls, events: events, timeout: timeout}, epoch, nil
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
	return newCluster(w, len(cfg.Addrs), cfg.KVCapacity, cfg.Trace, 1, func(epoch uint64) (plane, uint64, error) {
		return dialPlane(w, cfg, epoch)
	})
}

func (p *remotePlane) failures() <-chan transport.FailureEvent { return p.events }

// hangup closes every control connection; the first close ends the failure
// channel, so the hangup itself is never reported as a failure.
func (p *remotePlane) hangup() {
	for _, c := range p.ctrls {
		c.Close()
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
	p.replies = tensor.Grown(p.replies, len(p.ctrls))
	for r, c := range p.ctrls {
		v, err := c.Recv(p.timeout)
		if err != nil {
			return nil, p.poison(fmt.Errorf("transformer: control reply from rank %d: %w", r, err))
		}
		p.replies[r] = v
	}
	return p.replies, nil
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
	for _, c := range p.ctrls {
		// Give each worker a moment to ack so its serve loop exits cleanly,
		// but never block shutdown on a wedged or already-gone peer: a
		// missing ack is not an error at teardown.
		c.Recv(2 * time.Second)
	}
	p.hangup()
	// Mark the plane closed so later operations fail fast with a named
	// cause and a second Close is a no-op.
	p.dead = errors.New("cluster closed")
	return firstSendErr
}
