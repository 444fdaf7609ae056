package transformer

import (
	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/comm/transport"
)

// plane is the one way a Cluster reaches its ranks: broadcast a command, get
// one reply per rank. Every rank behind it is a rankEngine executing
// rankEngine.handle; the two implementations differ only in how a command
// gets there — handed over by pointer to goroutines over the mailbox
// transport (memPlane), or encoded onto per-worker control connections
// (remotePlane, remote.go).
type plane interface {
	// bcast delivers cmd to every rank and returns the replies indexed by
	// rank. A non-nil error means the plane itself failed; engine errors
	// travel inside the replies (wire.ErrOf). The command stream is lockstep,
	// and both the slice and the frames in it may be reused by the next
	// bcast: callers take what they need before issuing another command.
	bcast(cmd any) ([]any, error)
	// failures is this incarnation's fault-event source; it closes when the
	// plane is torn down.
	failures() <-chan transport.FailureEvent
	// hangup retires the incarnation without telling the ranks (Rebuild).
	hangup()
	// close shuts the ranks down and releases the transport.
	close() error
	// local folds in what only the plane itself knows: the transport's name,
	// this process's chaos counters when it also hosts the ranks, the control
	// links' traffic when it does not.
	local(tel *Telemetry)
}

// memPlane hosts every rank in this process: N engines over one comm.World.
// Commands and replies cross by pointer, never encoded, and the engines
// record straight into the cluster's trace recorder.
type memPlane struct {
	world   *comm.World
	engines []*rankEngine
	replies []any // reused across bcasts; see plane.bcast
}

func newMemPlane(w *Weights, n int, co clusterOpts, epoch uint64) (*memPlane, error) {
	p := &memPlane{replies: make([]any, n)}
	for r := 0; r < n; r++ {
		e, err := newRankEngine(w, co.kvCapacity, epoch, co.rec)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, e)
	}
	p.world = comm.NewWorld(n, co.commOpts...)
	return p, nil
}

func (p *memPlane) bcast(cmd any) ([]any, error) {
	err := p.world.Run(func(r *comm.Rank) error {
		p.replies[r.ID], _ = p.engines[r.ID].handle(r, p.world, cmd)
		return nil
	})
	return p.replies, err
}

func (p *memPlane) failures() <-chan transport.FailureEvent { return p.world.Failures() }

// close closes the mailbox transport, which ends the incarnation's failure
// event stream (and with it the cluster's forwarding pump). The ranks are
// goroutines of this process, so retiring them takes nothing more.
func (p *memPlane) close() error { return p.world.Transport().Close() }

func (p *memPlane) hangup() { p.close() }

// local: one process hosts everything here, so its process-global chaos
// counters are the whole cluster's — attached once; no engine reports any.
func (p *memPlane) local(tel *Telemetry) {
	tel.Transport = "mem"
	tel.ChaosKinds, tel.ChaosCounts = chaos.Totals()
}
