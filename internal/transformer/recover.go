package transformer

import (
	"fmt"

	"repro/internal/comm/transport"
)

// This file is the cluster half of the fault-tolerance subsystem: failure
// detection surfaced as events, and epoch-based rebuild after a rank dies.
//
// The model is deliberately coarse: any rank failure retires the whole
// incarnation. CP shards every sequence's KV across all ranks, so one dead
// rank makes every resident sequence (and every cached prefix) incomplete —
// there is nothing worth salvaging rank by rank. Instead the coordinator
// bumps the epoch, the surviving workers rejoin the mesh with fresh engines
// (cprank -rejoin), the dead rank is respawned by its supervisor, and the
// serving layer replays each live session's token log through the normal
// prefill/decode paths. Because chunk boundaries, sharding plans, and decode
// owner rotation are all pure functions of absolute position, the replayed
// KV placement — and therefore every post-recovery logit — is bit-identical
// to a cluster that never failed.

// Failures surfaces detected cluster faults as asynchronous events: dead
// worker control connections, worker-reported peer-link failures
// (wire.FailureNote), and injected transport faults. The channel is stable
// across rebuilds — subscribe once. Events are hints: the consumer is
// expected to quiesce and call Rebuild (directly or via the serving layer's
// recovery), not to attribute blame from the event alone. The first call
// starts the forwarding pump; an unwatched cluster spawns no goroutine.
func (c *Cluster) Failures() <-chan transport.FailureEvent {
	c.eventsMu.Lock()
	defer c.eventsMu.Unlock()
	if !c.pumping {
		c.pumping = true
		pumpEvents(c.events, c.eventSrc, c.srcEpoch)
	}
	return c.events
}

// Epoch returns the cluster incarnation: 1 at construction, +1 per rebuild.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// setEventSource records the current incarnation's failure-event source
// (the in-process transport's channel, or the control plane's) and, if a
// watcher already subscribed, pumps it into the stable events channel. Each
// pump ends when its source closes — the old incarnation's teardown — and
// stamps its events with the incarnation's epoch, so a consumer can tell a
// fresh failure from a retired incarnation's death throes.
func (c *Cluster) setEventSource(src <-chan transport.FailureEvent, epoch uint64) {
	c.eventsMu.Lock()
	defer c.eventsMu.Unlock()
	c.eventSrc = src
	c.srcEpoch = epoch
	if c.pumping {
		pumpEvents(c.events, src, epoch)
	}
}

// pumpEvents forwards a source channel into the stable events channel until
// the source closes, stamping each event with the source incarnation's
// epoch. Forwarding never blocks: a full channel already tells the consumer
// everything an extra event would.
func pumpEvents(dst chan transport.FailureEvent, src <-chan transport.FailureEvent, epoch uint64) {
	if src == nil {
		return
	}
	go func() {
		for ev := range src {
			ev.Epoch = epoch
			select {
			case dst <- ev:
			default:
			}
		}
	}()
}

// Rebuild retires the current incarnation and starts the next one: all rank
// state (KV caches, block mirrors, prefix registries, comm counters) is
// discarded, seqLens and decode rotation reset, and the epoch increments.
//
// The old plane is hung up first and the next one dialed at the bumped
// epoch. In-process that is a fresh mailbox World (which also clears injected
// faults) under fresh engines. Distributed, surviving workers see the hangup
// — or already saw the dead peer — and rejoin the mesh at the next epoch with
// fresh engines; the dead rank's process is respawned by whatever supervises
// it; handshakes from the old incarnation are rejected as stale by every peer.
//
// Rebuild does not replay anything itself: callers that want sessions back
// re-prefill from their token logs (the serving scheduler does this), which
// is what makes recovery bit-identical rather than best-effort.
func (c *Cluster) Rebuild() error {
	c.seqLens = make(map[int]int)
	c.decodeSteps = make(map[int]int)
	c.plane.hangup()
	p, epoch, err := c.dial(c.epoch + 1)
	if err != nil {
		// The old plane stays hung up; every cluster operation keeps failing
		// with this cause until a later Rebuild succeeds.
		if rp, ok := c.plane.(*remotePlane); ok {
			rp.poison(fmt.Errorf("transformer: rebuild failed: %w", err))
		}
		return err
	}
	c.epoch = epoch
	c.plane = p
	c.setEventSource(p.failures(), epoch)
	return nil
}
