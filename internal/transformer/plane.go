package transformer

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// links' traffic when it does not. Telemetry calls it before its round
	// trip.
	local(tel *Telemetry)
}

// memPlane hosts every rank in this process: N engines over one comm.World,
// each on a goroutine of its own for the life of the incarnation, which runs
// the commands bcast hands it the way a cprank worker runs the frames off its
// control connection. Commands and replies cross by pointer, never encoded,
// and the engines record straight into the cluster's trace recorder.
//
// The rank goroutines hold only the memRanks, never the memPlane, so a
// cluster dropped without Close becomes unreachable with its plane, whose
// cleanup then ends them.
type memPlane struct{ *memRanks }

// memRanks is what the rank goroutines share with bcast: rank r takes its
// next command from cmds[r], writes replies[r] and marks done. The command
// stream is lockstep, so replies is reused from one bcast to the next.
type memRanks struct {
	world   *comm.World
	engines []*rankEngine
	cmds    []chan any
	replies []any
	done    sync.WaitGroup // the ranks still running the current command
	exited  sync.WaitGroup // the rank goroutines still running
	stopped atomic.Bool
}

func newMemPlane(w *Weights, n int, co clusterOpts, epoch uint64) (*memPlane, error) {
	m := &memRanks{replies: make([]any, n), cmds: make([]chan any, n)}
	for r := 0; r < n; r++ {
		e, err := newRankEngine(w, co.kvCapacity, epoch, co.rec)
		if err != nil {
			return nil, err
		}
		m.engines = append(m.engines, e)
	}
	m.world = comm.NewWorld(n, co.commOpts...)
	stockWaitRecords(sudogCacheSize * (runtime.GOMAXPROCS(0) + 1))
	for r := range m.cmds {
		m.cmds[r] = make(chan any, 1)
		m.exited.Add(1)
		go m.serve(r)
	}
	p := &memPlane{m}
	runtime.AddCleanup(p, (*memRanks).stop, m)
	return p, nil
}

// sudogCacheSize is the capacity of a P's cache of the runtime's wait
// records (runtime.p.sudogbuf).
const sudogCacheSize = 128

// stockWaitRecords makes the runtime hold at least n wait records (sudogs),
// so that the ranks' hand-offs never allocate one. A goroutine that parks —
// a rank in a mailbox receive or on its command channel, the coordinator in
// bcast — takes a record from its P's cache and, woken by a goroutine on
// another P, returns it to that P's cache. Each cache keeps up to
// sudogCacheSize records before it spills half to the shared list, so while
// fewer than GOMAXPROCS caches' worth circulate, one P can sit on records
// while another finds its cache and the shared list empty and allocates, in
// bursts that thousands of decode steps do not outgrow. Parking in a select
// over n channels takes n records at once, and the wake-up hands them all
// back. Only a GC shrinks the stock again (it drops the shared list).
func stockWaitRecords(n int) {
	cases := make([]reflect.SelectCase, n+1)
	for i := range n {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(make(chan struct{}))}
	}
	cases[n] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(time.After(time.Millisecond))}
	reflect.Select(cases)
}

// serve is rank r's goroutine: one command at a time until the plane stops.
func (m *memRanks) serve(r int) {
	defer m.exited.Done()
	rank := m.world.Rank(r)
	for cmd := range m.cmds[r] {
		m.replies[r], _ = m.engines[r].handle(rank, m.world, cmd)
		m.done.Done()
	}
}

// stop ends the rank goroutines and returns once they have exited. The
// coordinator calls it, or the plane's cleanup once nothing can reach the
// plane; either way no bcast runs beside it.
func (m *memRanks) stop() {
	if m.stopped.CompareAndSwap(false, true) {
		for _, c := range m.cmds {
			close(c)
		}
	}
	m.exited.Wait()
}

func (p *memPlane) bcast(cmd any) ([]any, error) {
	if p.stopped.Load() {
		return nil, errors.New("transformer: cluster closed")
	}
	p.done.Add(len(p.cmds))
	for _, c := range p.cmds {
		c <- cmd
	}
	p.done.Wait()
	return p.replies, nil
}

func (p *memPlane) failures() <-chan transport.FailureEvent { return p.world.Failures() }

// close ends the rank goroutines and closes the mailbox transport, which ends
// the incarnation's failure event stream (and with it the cluster's
// forwarding pump).
func (p *memPlane) close() error {
	p.stop()
	return p.world.Transport().Close()
}

func (p *memPlane) hangup() { p.close() }

// local: one process hosts everything here, so its process-global chaos
// counters are the whole cluster's — attached once; no engine reports any.
func (p *memPlane) local(tel *Telemetry) {
	tel.Transport = "mem"
	tel.ChaosKinds, tel.ChaosCounts = chaos.Totals()
}
