package transformer

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/trace"
)

// ErrCoordinatorHangup reports a worker serve loop that ended because the
// coordinator's control connection dropped without an explicit shutdown
// command — the signature of a coordinator-initiated epoch rebuild (or a
// coordinator crash). Rejoin loops treat it as "rejoin at the next epoch";
// single-shot workers treat it as an orderly exit.
var ErrCoordinatorHangup = errors.New("transformer: coordinator hung up")

// WorkerConfig parameterizes one cprank worker process: which rank it
// hosts, where the mesh lives, and the model it replicates.
type WorkerConfig struct {
	Transformer Config // must match the coordinator's (digest-checked)
	Rank, World int

	// Listen is the TCP listen address (may be host:0); ignored when
	// Listener is set.
	Listen   string
	Listener net.Listener

	// Addrs lists every rank's address. Nil enables the rendezvous
	// exchange: the worker prints "CPRANK_ADDR <addr>" on AddrOut and reads
	// the full comma-separated list as one line from AddrIn — how a parent
	// process wires up a mesh of :0 listeners without port races.
	Addrs   []string
	AddrOut io.Writer
	AddrIn  io.Reader

	KVCapacity        int
	RecvTimeout       time.Duration // ring receive deadline (0 = comm default)
	RendezvousTimeout time.Duration

	// HeartbeatEvery / HeartbeatMisses tune mesh liveness detection: a
	// heartbeat frame every HeartbeatEvery, a link declared dead after
	// HeartbeatMisses silent periods. Zero values take the transport
	// defaults (500ms x 3); HeartbeatMisses < 0 disables read-side
	// liveness. The worker also heartbeats its control connection at the
	// same period so a coordinator can spot a wedged worker process.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int

	// WrapTransport, when set, intercepts the joined mesh transport before
	// the world is built around it — the chaos-injection hook. Errors abort
	// the incarnation.
	WrapTransport func(transport.Transport) (transport.Transport, error)

	// MaxTraceSpans caps the worker's span staging buffer per incarnation
	// (0 = trace.DefaultMaxSpans). Overflow is dropped and counted in
	// cp_trace_spans_dropped_total rather than growing without bound between
	// coordinator drains.
	MaxTraceSpans int

	// Epoch is the cluster incarnation to join first (0 = 1). A respawned
	// replacement for a dead rank can leave it 1: its peers answer from the
	// current epoch and the handshake adopts it.
	Epoch uint64
	// Rejoin keeps the worker alive across cluster incarnations: when the
	// serve loop ends with a coordinator hangup, a lost peer, or a stale
	// epoch, the worker discards its engine and rejoins the mesh at the
	// next (or observed) epoch instead of exiting. MaxRejoins bounds the
	// cycles (0 = 16).
	Rejoin     bool
	MaxRejoins int
}

// RunWorker hosts one CP rank for a single cluster incarnation: builds the
// replicated weights, joins the TCP mesh (plus the coordinator's control
// connection), and serves command frames until shutdown or coordinator
// hangup (both orderly here — use RunWorkerLoop for rejoin semantics).
func RunWorker(cfg WorkerConfig) error {
	cfg.Rejoin = false
	return RunWorkerLoop(cfg)
}

// RunWorkerLoop hosts one CP rank across cluster incarnations when
// cfg.Rejoin is set (RunWorker otherwise): each cycle joins the mesh at the
// current epoch with a fresh engine, serves until the incarnation ends, and
// rejoins at the next epoch. The loop exits cleanly on an explicit shutdown
// command, and with an error when the rendezvous for a new epoch times out
// (no coordinator came back) or the rejoin budget is spent.
func RunWorkerLoop(cfg WorkerConfig) error {
	w, err := NewWeights(cfg.Transformer)
	if err != nil {
		return err
	}
	b, err := newWorkerBoot(&cfg)
	if err != nil {
		return err
	}
	defer b.close()
	maxRejoins := cfg.MaxRejoins
	if maxRejoins <= 0 {
		maxRejoins = 16
	}
	epoch := max(cfg.Epoch, 1)
	for rejoins := 0; ; rejoins++ {
		err := b.serveEpoch(cfg, w, epoch)
		if !cfg.Rejoin {
			if errors.Is(err, ErrCoordinatorHangup) {
				return nil
			}
			return err
		}
		var eErr *transport.EpochError
		switch {
		case err == nil:
			return nil // explicit shutdown command
		case errors.As(err, &eErr):
			// The mesh is already at a newer epoch; adopt it.
			log.Printf("cprank: rank %d adopting epoch %d (was joining %d)", cfg.Rank, eErr.Observed, epoch)
			epoch = eErr.Observed
		case errors.Is(err, ErrCoordinatorHangup):
			// This incarnation is dead; the coordinator will rebuild at the
			// next epoch.
			log.Printf("cprank: rank %d lost the coordinator at epoch %d; rejoining at %d", cfg.Rank, epoch, epoch+1)
			epoch++
		default:
			// Anything else — rendezvous timeout, a rejected stray peer
			// aborting the join, a transient re-listen failure — retries at
			// the same epoch while budget remains. A rejoin worker's job is
			// to come back; only a spent budget makes it give up.
			log.Printf("cprank: rank %d rejoin at epoch %d failed (%v); retrying", cfg.Rank, epoch, err)
		}
		// rejoins counts completed cycles; the one about to start is
		// rejoin number rejoins+1, and the budget bounds rejoins proper —
		// the initial join is never charged against it.
		if rejoins+1 > maxRejoins {
			return fmt.Errorf("transformer: rank %d exceeded %d rejoins (last: %v)", cfg.Rank, maxRejoins, err)
		}
	}
}

// workerBoot holds what persists across a worker's incarnations: the
// resolved address list and this rank's stable listen address. The first
// cycle may consume a caller-provided listener (and run the stdin/stdout
// address exchange); later cycles re-listen on the same address.
type workerBoot struct {
	addrs      []string
	listenAddr string
	ln         net.Listener // first cycle's listener; nil afterwards
}

func newWorkerBoot(cfg *WorkerConfig) (*workerBoot, error) {
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transformer: worker %d listen: %w", cfg.Rank, err)
		}
	}
	if cfg.AddrOut != nil {
		fmt.Fprintf(cfg.AddrOut, "CPRANK_ADDR %s\n", ln.Addr())
	}
	addrs := cfg.Addrs
	if addrs == nil {
		if cfg.AddrIn == nil {
			ln.Close()
			return nil, errors.New("transformer: worker has neither Addrs nor AddrIn")
		}
		line, err := bufio.NewReader(cfg.AddrIn).ReadString('\n')
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("transformer: worker %d reading address list: %w", cfg.Rank, err)
		}
		addrs = strings.Split(strings.TrimSpace(line), ",")
	}
	return &workerBoot{addrs: addrs, listenAddr: ln.Addr().String(), ln: ln}, nil
}

// listener returns the cycle's listener: the boot (or parked) listener
// when one is held, else a fresh bind of the stable address. The brief
// retry absorbs an OS still releasing the port.
func (b *workerBoot) listener() (net.Listener, error) {
	if b.ln != nil {
		ln := b.ln
		b.ln = nil
		return ln, nil
	}
	bo := transport.NewBackoff("listen:" + b.listenAddr)
	bo.Cap = 200 * time.Millisecond // keep the whole retry span rejoin-sized
	bo.Budget = 16
	var lastErr error
	for {
		ln, err := net.Listen("tcp", b.listenAddr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		d, ok := bo.Next()
		if !ok {
			return nil, fmt.Errorf("transformer: re-listen on %s: %w", b.listenAddr, bo.Exhausted(lastErr))
		}
		time.Sleep(d)
	}
}

// park re-binds the worker's address as a placeholder the moment Join
// releases it (Join closes its listener once the mesh completes), and the
// next cycle's Join inherits the parked listener directly. Without this the
// port sits unbound for the whole serve phase — long enough for another
// process to claim it (ephemeral-port setups especially), which would
// strand every future rejoin. Dialers that hit the parked socket queue in
// the kernel backlog and complete their handshake when the next rendezvous
// starts accepting.
func (b *workerBoot) park() {
	for i := 0; i < 40 && b.ln == nil; i++ {
		ln, err := net.Listen("tcp", b.listenAddr)
		if err == nil {
			b.ln = ln
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Failed to park: listener() retries the bind at the next rejoin.
}

// close releases a parked listener (worker exiting for good).
func (b *workerBoot) close() {
	if b.ln != nil {
		b.ln.Close()
		b.ln = nil
	}
}

// serveEpoch runs one incarnation: fresh engine, mesh join at the given
// epoch, serve until the incarnation ends.
func (b *workerBoot) serveEpoch(cfg WorkerConfig, w *Weights, epoch uint64) error {
	ln, err := b.listener()
	if err != nil {
		return err
	}
	tp, ctrl, err := transport.Join(transport.TCPConfig{
		World: cfg.World, Rank: cfg.Rank, Addrs: b.addrs, Listener: ln,
		ConfigSum:         ConfigSum(cfg.Transformer, cfg.World, cfg.KVCapacity),
		Epoch:             epoch,
		ExpectCtrl:        true,
		RendezvousTimeout: cfg.RendezvousTimeout,
		HeartbeatEvery:    cfg.HeartbeatEvery,
		HeartbeatMisses:   cfg.HeartbeatMisses,
	})
	if err != nil {
		return err
	}
	b.park() // hold the port through the serve phase for the next rejoin
	defer tp.Close()
	defer ctrl.Close()
	var mesh transport.Transport = tp
	if cfg.WrapTransport != nil {
		if mesh, err = cfg.WrapTransport(tp); err != nil {
			return fmt.Errorf("transformer: rank %d transport wrapper: %w", cfg.Rank, err)
		}
	}
	var commOpts []comm.Option
	if cfg.RecvTimeout > 0 {
		commOpts = append(commOpts, comm.WithRecvTimeout(cfg.RecvTimeout))
	}
	world := comm.NewWorldOver(mesh, commOpts...)
	return serveRank(ctrl, world, w, cfg.KVCapacity, epoch, cfg.MaxTraceSpans)
}

// serveRank runs one rank's command loop: receive a control frame, execute
// it on the rank engine (ring passes flow over the world's transport), and
// reply with a result frame. Engine errors are reported in the reply and
// the loop keeps serving — they are the coordinator's to handle. The control
// connection's own reader and heartbeat run under it, so the loop only
// waits: on the next command, or on the mesh's next failure event.
//
// Data-plane faults (a peer link dying) never end the loop either: the
// worker sends the coordinator an unsolicited FailureNote — once per dead
// peer — and keeps serving, because only the coordinator can tell a rank
// crash that needs an epoch rebuild from an orderly teardown where a peer
// simply exited first. Exiting on the event would race the in-flight
// ShutdownCmd at every clean shutdown. The loop's only exits are
// control-plane signals:
//
//   - explicit ShutdownCmd: returns nil (orderly exit, never rejoined)
//   - coordinator hangup: returns ErrCoordinatorHangup (rebuild or crash;
//     the rejoin loop re-enters rendezvous at the next epoch)
func serveRank(ctrl *transport.Ctrl, world *comm.World, w *Weights, kvCapacity int, epoch uint64, maxTraceSpans int) error {
	rank := world.Rank(world.LocalRanks()[0]) // a TCP world hosts one rank
	// Each incarnation stages its spans in its own recorder; the coordinator
	// drains them over TraceCmd round trips and merges into its cumulative
	// store, epoch-stamped so traces survive recovery rebuilds.
	rec := trace.New()
	rec.SetMaxSpans(maxTraceSpans)
	e, err := newRankEngine(w, kvCapacity, epoch, rec)
	if err != nil {
		return err
	}
	e.staged = true
	noted := make(map[int]bool)
	frames, failures := ctrl.Frames(), world.Failures()
	for {
		select {
		case v, ok := <-frames:
			if !ok {
				return hungUp(ctrl.Err())
			}
			reply, shutdown := e.handle(rank, world, v)
			if st, ok := reply.(*wire.StatsResult); ok {
				// Process-global robustness counters — frames through the CRC
				// check, chaos faults injected — belong to this process, not
				// to the engine; the coordinator sums them across workers.
				st.IntegrityChecked, st.IntegrityRejected = wire.IntegrityStats()
				st.ChaosKinds, st.ChaosCounts = chaos.Totals()
			}
			if err := ctrl.Send(reply); err != nil {
				return hungUp(err)
			}
			if shutdown {
				return nil
			}
		case ev, ok := <-failures:
			if !ok {
				failures = nil // transport closed; stop selecting on it
				continue
			}
			if noted[ev.Peer] {
				continue
			}
			noted[ev.Peer] = true
			// Best effort: surface the dead link to the coordinator. The
			// note never reaches the coordinator's command/result stream, so
			// it can never alias a reply.
			_ = ctrl.Send(&wire.FailureNote{
				Rank:  rank.ID,
				Cause: fmt.Sprintf("link to rank %d failed: %v", ev.Peer, ev.Cause),
			})
		}
	}
}

// hungUp maps a control connection the coordinator closed to
// ErrCoordinatorHangup, and returns any other error as it is. The
// connection's cause matches io.EOF on a hangup whichever of its reader,
// heartbeat or reply write met the closed socket first.
func hungUp(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return ErrCoordinatorHangup
	}
	return err
}

// handle executes one command frame — the single dispatch every coordinator
// request reaches a rank through, on either plane. Panics become error
// replies so a malformed command cannot kill the rank while its peers wait
// mid-ring.
func (e *rankEngine) handle(rank *comm.Rank, world *comm.World, v any) (reply any, shutdown bool) {
	defer func() {
		if p := recover(); p != nil {
			reply = &wire.Ack{Err: fmt.Sprintf("rank %d panicked: %v", rank.ID, p)}
		}
	}()
	switch cmd := v.(type) {
	case *wire.PrefillCmd:
		logits, err := e.prefill(rank, cmd)
		e.prefillRes = wire.PrefillResult{Logits: logits, Err: errString(err)}
		if err == nil && cmd.Reply == wire.ReplyToken {
			e.pre.next = sampleInto(e.pre.next, logits.Data, e.w.Cfg.Model.VocabSize)
			e.prefillRes.Logits, e.prefillRes.IDs = nil, e.pre.next
		}
		return &e.prefillRes, false
	case *wire.DecodeCmd:
		flat, err := e.decode(rank, cmd)
		e.decodeRes = wire.DecodeResult{Flat: flat, Err: errString(err)}
		if err == nil && cmd.Reply == wire.ReplyToken {
			e.dec.next = sampleInto(e.dec.next, flat, e.w.Cfg.Model.VocabSize)
			e.decodeRes.Flat, e.decodeRes.IDs = nil, e.dec.next
		}
		return &e.decodeRes, false
	case *wire.DropCmd:
		e.drop(cmd.Seq)
		return &wire.Ack{}, false
	case *wire.DetachCmd:
		perLayer, err := e.detach(cmd.ID, cmd.Seq, cmd.UpTo)
		return &wire.DetachResult{PerLayer: perLayer, Err: errString(err)}, false
	case *wire.AdoptCmd:
		return &wire.Ack{Err: errString(e.adopt(cmd.Seq, cmd.ID))}, false
	case *wire.ReleasePrefixCmd:
		e.releasePrefix(cmd.ID)
		return &wire.Ack{}, false
	case *wire.CapQueryCmd:
		avail, overhead := e.capInfo(cmd.Seqs)
		return &wire.CapResult{Capacity: e.capacity(), Avail: avail, Overhead: overhead}, false
	case *wire.StatsCmd:
		return e.statsResult(world, rank.ID), false
	case *wire.TraceCmd:
		return e.traceResult(rank.ID), false
	case *wire.ShutdownCmd:
		return &wire.Ack{}, true
	default:
		return &wire.Ack{Err: fmt.Sprintf("rank %d received unsupported command %T", rank.ID, v)}, false
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// WorkerMain is the cprank entry point shared with self-executing examples:
// it runs the worker (with the rejoin loop when cfg.Rejoin is set) using
// the standard stdout/stdin address exchange when no explicit address list
// is given, and maps failure onto a process exit code.
func WorkerMain(cfg WorkerConfig) {
	if cfg.Addrs == nil {
		cfg.AddrOut = os.Stdout
		cfg.AddrIn = os.Stdin
	}
	if err := RunWorkerLoop(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cprank: rank %d: %v\n", cfg.Rank, err)
		os.Exit(1)
	}
}
