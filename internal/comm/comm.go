// Package comm provides the collective-communication substrate the
// ring-attention algorithms run on. A World is a group of N CP ranks
// connected by a pluggable point-to-point transport (comm/transport): the
// in-memory mailbox transport runs every rank as a goroutine in one process
// (the seed engine's behavior, unchanged), while the TCP transport connects
// ranks living in separate OS processes through the deterministic wire
// codec. The primitives mirror the NCCL surface the paper uses —
// point-to-point SendRecv for the ring loop, All2All for restoring pass-Q
// partial outputs, and AllGather for the all-gather pass-KV baseline and the
// ring's segment-length agreement — while recording per-collective message
// and byte counts so tests can check the paper's communication-cost claims
// (Table 2) against actually-transferred bytes.
//
// Every receive carries a timeout so a bug that would deadlock a real
// cluster fails the test quickly instead, and links can be failed
// explicitly to exercise error paths. All communication errors name the
// directed link uniformly as src->dst.
package comm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
)

// Kind labels a collective family for accounting.
type Kind string

const (
	KindSendRecv  Kind = "sendrecv"
	KindAll2All   Kind = "all2all"
	KindAllGather Kind = "allgather"
)

// DefaultRecvTimeout bounds how long a rank waits for a message before
// reporting a communication error. Functional tests are fast; a second of
// silence means a peer died or the algorithm deadlocked.
const DefaultRecvTimeout = 10 * time.Second

// Option configures a World at construction time.
type Option func(*World)

// WithRecvTimeout overrides DefaultRecvTimeout for every send/receive on the
// World. Long batched-decode soak tests and slow CI machines set this higher
// than the default; fault-injection tests set it lower so failures surface
// quickly. Non-positive values are ignored.
func WithRecvTimeout(d time.Duration) Option {
	return func(w *World) {
		if d > 0 {
			w.RecvTimeout = d
		}
	}
}

// Stats aggregates traffic counters for one rank.
type Stats struct {
	Messages map[Kind]int64
	Bytes    map[Kind]float64
}

func newStats() *Stats {
	return &Stats{Messages: make(map[Kind]int64), Bytes: make(map[Kind]float64)}
}

// TotalBytes sums bytes across all collective kinds in sorted-kind order,
// so the float accumulation is bit-identical across runs.
func (s Stats) TotalBytes() float64 {
	kinds := make([]string, 0, len(s.Bytes))
	for k := range s.Bytes {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var t float64
	for _, k := range kinds {
		t += s.Bytes[Kind(k)]
	}
	return t
}

// TotalMessages sums message counts across all collective kinds.
func (s Stats) TotalMessages() int64 {
	var t int64
	for _, m := range s.Messages {
		t += m
	}
	return t
}

// World is a process group of N ranks over one transport. In a distributed
// cluster each process holds its own World over the shared TCP transport;
// its stats then cover the locally hosted rank's traffic only.
type World struct {
	N           int
	RecvTimeout time.Duration

	t     transport.Transport
	local []int

	mu    sync.Mutex
	stats []*Stats // per sending rank
	links map[[2]int]*linkAgg

	ranks []Rank // the handles Rank returns, made once
}

// linkAgg is one directed link's modeled traffic (accounted bytes, not wire
// bytes).
type linkAgg struct {
	msgs  int64
	bytes float64
}

// NewWorld creates an in-process group with n ranks over the mailbox
// transport.
func NewWorld(n int, opts ...Option) *World {
	if n <= 0 {
		panic(fmt.Sprintf("comm: non-positive world size %d", n))
	}
	return NewWorldOver(transport.NewMem(n), opts...)
}

// NewWorldOver wraps an existing transport (for distributed ranks: the TCP
// mesh this process joined).
func NewWorldOver(t transport.Transport, opts ...Option) *World {
	w := &World{
		N:           t.WorldSize(),
		RecvTimeout: DefaultRecvTimeout,
		t:           t,
		local:       t.LocalRanks(),
		links:       make(map[[2]int]*linkAgg),
	}
	for _, opt := range opts {
		opt(w)
	}
	w.stats = make([]*Stats, w.N)
	w.ranks = make([]Rank, w.N)
	for i := range w.stats {
		w.stats[i] = newStats()
		w.ranks[i] = Rank{w: w, ID: i}
	}
	return w
}

// Transport returns the delivery layer (e.g. to read TCP wire counters).
func (w *World) Transport() transport.Transport { return w.t }

// LocalRanks lists the ranks hosted in this process.
func (w *World) LocalRanks() []int { return append([]int(nil), w.local...) }

// Failures surfaces the transport's asynchronous link-fault events (dead
// peer connections, failed heartbeats, injected faults). The channel closes
// when the transport closes. Serving layers watch it to start recovery
// while the cluster is idle, instead of learning about a dead rank only
// when the next collective fails.
func (w *World) Failures() <-chan transport.FailureEvent { return w.t.Failures() }

// FailLink marks the directed link src->dst as failed; subsequent sends on
// it return an error.
func (w *World) FailLink(src, dst int) { w.t.FailLink(src, dst) }

func (w *World) account(src, dst int, kind Kind, bytes float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats[src].Messages[kind]++
	w.stats[src].Bytes[kind] += bytes
	key := [2]int{src, dst}
	agg := w.links[key]
	if agg == nil {
		agg = &linkAgg{}
		w.links[key] = agg
	}
	agg.msgs++
	agg.bytes += bytes
}

// RankStats returns a snapshot of rank r's send-side traffic counters.
func (w *World) RankStats(r int) Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := Stats{Messages: make(map[Kind]int64), Bytes: make(map[Kind]float64)}
	for k, v := range w.stats[r].Messages {
		out.Messages[k] = v
	}
	for k, v := range w.stats[r].Bytes {
		out.Bytes[k] = v
	}
	return out
}

// LinkStats snapshots per-directed-link traffic: the modeled bytes the
// collectives account, merged with the transport's wire-level frame/byte
// counters (TCP only; the mailbox transport moves no wire bytes). Sorted by
// (src, dst).
func (w *World) LinkStats() []wire.LinkStat {
	merged := make(map[[2]int]*wire.LinkStat)
	w.mu.Lock()
	for key, agg := range w.links {
		merged[key] = &wire.LinkStat{Src: key[0], Dst: key[1], Messages: agg.msgs, Bytes: agg.bytes}
	}
	w.mu.Unlock()
	for _, ws := range w.t.WireLinks() {
		key := [2]int{ws.Src, ws.Dst}
		ls := merged[key]
		if ls == nil {
			ls = &wire.LinkStat{Src: ws.Src, Dst: ws.Dst}
			merged[key] = ls
		}
		ls.WireMsgs = ws.WireMsgs
		ls.WireBytes = ws.WireBytes
	}
	keys := make([][2]int, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]wire.LinkStat, len(keys))
	for i, k := range keys {
		out[i] = *merged[k]
	}
	return out
}

// Rank is one participant's handle into the world. Its methods are called
// from that rank's goroutine, one at a time. A Send does not wait for the
// receiver's Recv (the transport queues the payload: a mailbox slot in
// process, the peer's reader and inbox over TCP), so the ring overlaps a
// transfer with compute by sending at issue and receiving afterwards.
type Rank struct {
	w  *World
	ID int
}

// Rank returns the handle for rank id: the World's own, the same one on
// every call.
func (w *World) Rank(id int) *Rank {
	if id < 0 || id >= w.N {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", id, w.N))
	}
	return &w.ranks[id]
}

// N returns the world size.
func (r *Rank) N() int { return r.w.N }

func (r *Rank) send(dst int, kind Kind, msg any, bytes float64) error {
	if dst < 0 || dst >= r.w.N {
		return fmt.Errorf("comm: send %d->%d: destination outside [0,%d)", r.ID, dst, r.w.N)
	}
	if err := r.w.t.Send(r.ID, dst, msg, r.w.RecvTimeout); err != nil {
		switch {
		case errors.Is(err, transport.ErrLinkFailed):
			return linkFailedErr(r.ID, dst, err)
		case errors.Is(err, transport.ErrTimeout):
			return fmt.Errorf("comm: send %d->%d timed out%s", r.ID, dst, causeSuffix(err))
		default:
			return fmt.Errorf("comm: send %d->%d: %v", r.ID, dst, err)
		}
	}
	r.w.account(r.ID, dst, kind, bytes)
	return nil
}

func (r *Rank) recv(src int) (any, error) {
	if src < 0 || src >= r.w.N {
		return nil, fmt.Errorf("comm: recv %d->%d: source outside [0,%d)", src, r.ID, r.w.N)
	}
	msg, err := r.w.t.Recv(r.ID, src, r.w.RecvTimeout)
	if err != nil {
		switch {
		case errors.Is(err, transport.ErrLinkFailed):
			return nil, linkFailedErr(src, r.ID, err)
		case errors.Is(err, transport.ErrTimeout):
			return nil, fmt.Errorf("comm: recv %d->%d timed out after %v%s", src, r.ID, r.w.RecvTimeout, causeSuffix(err))
		default:
			return nil, fmt.Errorf("comm: recv %d->%d: %v", src, r.ID, err)
		}
	}
	return msg, nil
}

// linkFailedErr names a dead directed link, appending the transport-level
// cause (e.g. the socket error) when one exists.
func linkFailedErr(src, dst int, err error) error {
	return fmt.Errorf("comm: link %d->%d failed%s", src, dst, causeSuffix(err))
}

func causeSuffix(err error) string {
	if c := transport.Cause(err); c != nil {
		return ": " + c.Error()
	}
	return ""
}

// Waiting reports whether a message from src is already queued, so that Recv
// would return without waiting.
func (r *Rank) Waiting(src int) bool { return r.w.t.Waiting(r.ID, src) }

// Recycle hands a message this rank received back to the transport once the
// rank is done with it — attended, and forwarded if it circulates — so a
// TCP link may decode a later frame into its storage. The rank must not read
// msg afterwards. On the in-process transport it does nothing: a mailbox
// message is the sender's. Recycling what the transport did not lend, or
// recycling twice, does nothing either.
func (r *Rank) Recycle(msg any) { r.w.t.Recycle(r.ID, msg) }

// Send delivers msg to dst, accounting bytes under SendRecv.
func (r *Rank) Send(dst int, msg any, bytes float64) error {
	return r.send(dst, KindSendRecv, msg, bytes)
}

// Recv blocks for the next message from src.
func (r *Rank) Recv(src int) (any, error) { return r.recv(src) }

// SendRecv performs the ring step: send msg to dst and receive the
// in-flight message from src. It is safe for all ranks to call this
// concurrently in a ring because the transport buffers sends.
func (r *Rank) SendRecv(dst, src int, msg any, bytes float64) (any, error) {
	if err := r.send(dst, KindSendRecv, msg, bytes); err != nil {
		return nil, err
	}
	return r.recv(src)
}

// All2AllInto is All2All receiving into a caller-owned slice of length N,
// for callers that run the exchange every step and keep the slice.
func (r *Rank) All2AllInto(out, msgs []any, bytes []float64) error {
	n := r.w.N
	if len(msgs) != n || len(bytes) != n || len(out) != n {
		return fmt.Errorf("comm: all2all on rank %d got %d msgs, %d sizes and %d slots, want %d",
			r.ID, len(msgs), len(bytes), len(out), n)
	}
	for dst := 0; dst < n; dst++ {
		if dst == r.ID {
			continue
		}
		if err := r.send(dst, KindAll2All, msgs[dst], bytes[dst]); err != nil {
			return err
		}
	}
	out[r.ID] = msgs[r.ID]
	for src := 0; src < n; src++ {
		if src == r.ID {
			continue
		}
		m, err := r.recv(src)
		if err != nil {
			return err
		}
		out[src] = m
	}
	return nil
}

// AllGatherInto broadcasts msg to every peer and stores all ranks'
// contributions in out, a caller-owned slice of length N indexed by source
// (the local one included), for callers that gather every pass and keep the
// slice.
func (r *Rank) AllGatherInto(out []any, msg any, bytes float64) error {
	n := r.w.N
	if len(out) != n {
		return fmt.Errorf("comm: allgather on rank %d got %d slots, want %d", r.ID, len(out), n)
	}
	for dst := 0; dst < n; dst++ {
		if dst == r.ID {
			continue
		}
		if err := r.send(dst, KindAllGather, msg, bytes); err != nil {
			return err
		}
	}
	out[r.ID] = msg
	for src := 0; src < n; src++ {
		if src == r.ID {
			continue
		}
		m, err := r.recv(src)
		if err != nil {
			return err
		}
		out[src] = m
	}
	return nil
}

// Run executes fn concurrently on every rank hosted in this process and
// waits for all to finish. The first non-nil error (lowest rank wins ties)
// is returned. For the in-memory transport that is every rank; a
// distributed worker hosts one.
func (w *World) Run(fn func(r *Rank) error) error {
	errs := make([]error, w.N)
	var wg sync.WaitGroup
	for _, i := range w.local {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[id] = fmt.Errorf("comm: rank %d panicked: %v", id, p)
				}
			}()
			errs[id] = fn(w.Rank(id))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunCollect executes fn on every locally hosted rank and returns each
// rank's result, indexed by rank id, failing on the first error.
//
//cplint:allow testonly the ring tests (TestPrefillRowsKeepBitsAndTraffic) collect per-rank outputs with it
func RunCollect[T any](w *World, fn func(r *Rank) (T, error)) ([]T, error) {
	out := make([]T, w.N)
	err := w.Run(func(r *Rank) error {
		v, err := fn(r)
		if err != nil {
			return err
		}
		out[r.ID] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
