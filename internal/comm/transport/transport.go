// Package transport provides the pluggable message-delivery layer under
// comm.World. Two implementations share one interface:
//
//   - Mem: the seed engine's in-process per-(src,dst) FIFO mailboxes, for
//     clusters whose ranks are goroutines in one address space. Payloads are
//     passed by pointer, never serialized — zero behavior change from the
//     pre-interface World.
//   - TCP (tcp.go): ranks as separate OS processes on a full mesh of TCP
//     connections, every payload encoded with the deterministic wire codec,
//     plus rank rendezvous, heartbeats, and link-failure detection.
//
// The interface deliberately mirrors what the ring algorithms need and
// nothing more: directed point-to-point send/receive with timeouts, a probe
// for a payload already queued, link fault injection, and per-link
// wire-traffic counters. Collectives stay in comm, built from these
// primitives, so both transports run the identical algorithm code.
package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm/wire"
)

// ErrTimeout reports a send or receive that exceeded its deadline while the
// link itself still looks healthy.
var ErrTimeout = errors.New("timed out")

// ErrLinkFailed reports a send or receive on a failed link: explicitly
// fault-injected, or (TCP) a connection that died.
var ErrLinkFailed = errors.New("link failed")

// failure wraps a sentinel with a transport-level cause (e.g. the socket
// error that killed a TCP link). errors.Is matches the sentinel and the
// cause's own chain, so a link the far end hung up on matches io.EOF too.
type failure struct {
	sentinel error
	cause    error
}

func (f *failure) Error() string   { return f.sentinel.Error() + ": " + f.cause.Error() }
func (f *failure) Unwrap() []error { return []error{f.sentinel, f.cause} }

func failWith(sentinel, cause error) error {
	if cause == nil {
		return sentinel
	}
	return &failure{sentinel: sentinel, cause: cause}
}

// Cause returns the transport-level cause attached to a sentinel error, or
// nil for a bare sentinel.
func Cause(err error) error {
	var f *failure
	if errors.As(err, &f) {
		return f.cause
	}
	return nil
}

// FailureEvent reports a detected data-plane fault: the directed link to
// Peer is down (injected fault, dead connection, or failed heartbeat).
// Events surface asynchronously on Transport.Failures, independent of any
// in-flight send or receive, so an idle cluster still learns about a dead
// rank within a couple of heartbeat periods.
//
// Epoch is the cluster incarnation the event belongs to. Transports leave
// it zero; the cluster layer stamps it when forwarding, so consumers can
// discard events from an incarnation that recovery already retired instead
// of rebuilding a healthy successor.
type FailureEvent struct {
	Peer  int
	Cause error
	Epoch uint64
}

// EpochError reports a rendezvous handshake that met a peer on a newer
// cluster epoch: this process's incarnation is stale and should rejoin at
// (at least) the observed epoch. Rejoin loops use it to converge on the
// coordinator's epoch without out-of-band coordination.
type EpochError struct {
	Observed uint64 // the newer epoch seen on the wire
	Stale    uint64 // the epoch this process tried to join with
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("transport: epoch %d is stale, cluster is at epoch %d", e.Stale, e.Observed)
}

// eventSink is the shared bounded failure-event channel: sends never block
// (events are droppable hints — the consumer only needs to learn that
// something failed) and Close is safe against concurrent publishers. A nil
// sink drops every event.
type eventSink struct {
	mu     sync.Mutex
	ch     chan FailureEvent
	closed bool
}

func newEventSink(buf int) *eventSink {
	return &eventSink{ch: make(chan FailureEvent, buf)}
}

func (s *eventSink) publish(ev FailureEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.ch <- ev:
	default: // full: the consumer already has failure signals pending
	}
}

func (s *eventSink) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// Transport moves opaque payloads between ranks. Implementations must allow
// concurrent calls from different local ranks' goroutines; per-(dst,src)
// receive ordering is FIFO.
type Transport interface {
	// WorldSize returns the total rank count, local and remote.
	WorldSize() int
	// LocalRanks lists the ranks hosted in this process, ascending.
	LocalRanks() []int
	// Send delivers payload on the directed link src->dst. src must be
	// local. A full outgoing path blocks up to timeout.
	Send(src, dst int, payload any, timeout time.Duration) error
	// Recv returns the next payload on the directed link src->dst. dst must
	// be local. An empty link blocks up to timeout.
	Recv(dst, src int, timeout time.Duration) (any, error)
	// Waiting reports whether a payload is already queued on src->dst, so
	// that Recv would return without waiting. dst must be local.
	Waiting(dst, src int) bool
	// Recycle hands back a payload Recv returned to rank dst once the rank
	// is done with it, so the transport may decode a later frame into its
	// storage. A transport takes back only what it lent, and only once;
	// anything else is ignored. The rank must not read the payload after.
	Recycle(dst int, payload any)
	// FailLink / HealLink inject and clear a directed send-side fault.
	FailLink(src, dst int)
	HealLink(src, dst int)
	// Failures surfaces detected link faults as asynchronous events:
	// injected FailLink calls and (TCP) dead connections. The channel is
	// closed when the transport closes. Events are droppable hints — a slow
	// consumer loses duplicates, never the fact that a failure happened.
	Failures() <-chan FailureEvent
	// WireLinks snapshots actual per-link wire traffic (frames and encoded
	// bytes). The in-memory transport never serializes and returns nil.
	WireLinks() []wire.LinkStat
	// Close tears the transport down; in-flight operations fail.
	Close() error
}

// Mem is the in-process mailbox transport. Every rank is local.
type Mem struct {
	n      int
	boxes  [][]chan any    // boxes[dst][src]
	timers [][]*time.Timer // timers[dst][src]: bounds a parked Recv on the box
	failMu failMap
	events *eventSink
}

// NewMem builds the mailbox mesh for n ranks.
func NewMem(n int) *Mem {
	if n <= 0 {
		panic(fmt.Sprintf("transport: non-positive world size %d", n))
	}
	m := &Mem{n: n, failMu: newFailMap(), events: newEventSink(2 * n)}
	m.boxes = make([][]chan any, n)
	m.timers = make([][]*time.Timer, n)
	for d := 0; d < n; d++ {
		m.boxes[d] = make([]chan any, n)
		m.timers[d] = make([]*time.Timer, n)
		for s := 0; s < n; s++ {
			// Capacity n+1 lets every rank complete an All2All send phase
			// before any rank starts receiving, avoiding deadlock without
			// extra goroutines.
			m.boxes[d][s] = make(chan any, n+1)
			m.timers[d][s] = time.NewTimer(time.Hour)
			m.timers[d][s].Stop()
		}
	}
	return m
}

// WorldSize implements Transport.
func (m *Mem) WorldSize() int { return m.n }

// LocalRanks implements Transport: every rank lives in this process.
func (m *Mem) LocalRanks() []int {
	out := make([]int, m.n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Send implements Transport. A mailbox with room — the steady state of every
// ring hop — takes the payload without arming a timer.
func (m *Mem) Send(src, dst int, payload any, timeout time.Duration) error {
	if m.failMu.failed(src, dst) {
		return ErrLinkFailed
	}
	box := m.boxes[dst][src]
	select {
	case box <- payload:
		return nil
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case box <- payload:
		return nil
	case <-t.C:
		return failWith(ErrTimeout, errors.New("mailbox full"))
	}
}

// recvPollBudget is how long Recv watches an empty mailbox before it arms a
// timer and parks. A decode ring hop is a handoff between two rank goroutines
// that finish their compute within microseconds of each other, and a parked
// receiver pays a wake-up and a scheduler pass to learn what one more look
// would have told it: BenchmarkMailboxHandoff puts a parked round trip at
// about three times a polled one on the 2-vCPU runner (≈ 2.0 µs against
// ≈ 0.65 µs, both sides already spinning — the idle-thread wake a real step
// pays is dearer still). 50 µs covers the skew between two ranks' share of a
// decode step (≈ 1 ms over six handoffs at B = 8) and is invisible next to
// the milliseconds a pass-KV hop waits. Every turn yields the processor, so a
// rank polling on an oversubscribed host cannot keep a peer off its core.
const recvPollBudget = 50 * time.Microsecond

// Recv implements Transport. A payload already waiting is returned without
// arming a timer. An empty mailbox is polled for recvPollBudget first; only
// then does the receiver arm the mailbox's timer for what is left of timeout
// and park. Only rank dst receives from its mailboxes, one receive at a time,
// and Go 1.23+ timers deliver nothing stale after Stop or Reset, so one timer
// per mailbox, made stopped with the mailbox, serves every parked receive: a
// receive that parks for the first time allocates nothing either.
func (m *Mem) Recv(dst, src int, timeout time.Duration) (any, error) {
	box := m.boxes[dst][src]
	select {
	case v := <-box:
		return v, nil
	default:
	}
	start := time.Now()
	for time.Since(start) < min(recvPollBudget, timeout) {
		runtime.Gosched()
		select {
		case v := <-box:
			return v, nil
		default:
		}
	}
	left := timeout - time.Since(start)
	if left <= 0 {
		return nil, ErrTimeout
	}
	t := m.timers[dst][src]
	t.Reset(left)
	defer t.Stop()
	select {
	case v := <-box:
		return v, nil
	case <-t.C:
		return nil, ErrTimeout
	}
}

// Waiting implements Transport.
func (m *Mem) Waiting(dst, src int) bool { return len(m.boxes[dst][src]) > 0 }

// Recycle implements Transport: a mailbox payload is the sender's, passed by
// pointer and never decoded, so there is nothing to take back.
func (m *Mem) Recycle(int, any) {}

// FailLink implements Transport. The injected fault surfaces on Failures
// too, mirroring how a real dead link announces itself on the TCP transport.
func (m *Mem) FailLink(src, dst int) {
	m.failMu.fail(src, dst)
	m.events.publish(FailureEvent{Peer: dst, Cause: fmt.Errorf("injected link failure %d->%d", src, dst)})
}

// HealLink implements Transport.
func (m *Mem) HealLink(src, dst int) { m.failMu.heal(src, dst) }

// Failures implements Transport.
func (m *Mem) Failures() <-chan FailureEvent { return m.events.ch }

// WireLinks implements Transport: in-process delivery moves no wire bytes.
func (m *Mem) WireLinks() []wire.LinkStat { return nil }

// Close implements Transport.
func (m *Mem) Close() error {
	m.events.close()
	return nil
}

// failMap is the shared injected-fault set.
type failMap struct {
	mu  sync.Mutex
	set map[[2]int]bool
}

func newFailMap() failMap { return failMap{set: make(map[[2]int]bool)} }

func (f *failMap) fail(src, dst int) {
	f.mu.Lock()
	f.set[[2]int{src, dst}] = true
	f.mu.Unlock()
}

func (f *failMap) heal(src, dst int) {
	f.mu.Lock()
	delete(f.set, [2]int{src, dst})
	f.mu.Unlock()
}

func (f *failMap) failed(src, dst int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set[[2]int{src, dst}]
}
