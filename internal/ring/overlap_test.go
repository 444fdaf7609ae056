package ring

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
)

// runOverlapScenario drives a multi-turn mixed-variant conversation — both
// prefill rings plus two batched decode sweeps — over a fresh in-process
// world and returns every per-rank output in turn order together with the
// world's per-link and total communication accounting.
func runOverlapScenario(t *testing.T, n int) ([]*attention.Output, []wire.LinkStat, comm.Stats) {
	t.Helper()
	h := newHarness(t, 77, n, 2)
	h.prefillTurn([]int{8, 6}, PassKVPrefill, "pass-kv")
	h.prefillTurn([]int{3, 5}, PassQPrefill, "pass-q")
	h.decodeStep(0)
	h.decodeStep(1)
	return h.outs, h.world.LinkStats(), h.world.TotalStats()
}

func requireSameOutputs(t *testing.T, sync, overlap []*attention.Output) {
	t.Helper()
	if len(sync) != len(overlap) {
		t.Fatalf("overlapped run produced %d outputs, synchronous %d", len(overlap), len(sync))
	}
	for i := range sync {
		a, b := sync[i], overlap[i]
		if len(a.O.Data) != len(b.O.Data) || len(a.LSE) != len(b.LSE) {
			t.Fatalf("output %d shape differs: %d/%d data, %d/%d lse",
				i, len(a.O.Data), len(b.O.Data), len(a.LSE), len(b.LSE))
		}
		for j := range a.O.Data {
			if math.Float32bits(a.O.Data[j]) != math.Float32bits(b.O.Data[j]) {
				t.Fatalf("output %d element %d: sync %x, overlap %x", i, j, a.O.Data[j], b.O.Data[j])
			}
		}
		for j := range a.LSE {
			if math.Float64bits(a.LSE[j]) != math.Float64bits(b.LSE[j]) {
				t.Fatalf("output %d lse %d: sync %x, overlap %x", i, j, a.LSE[j], b.LSE[j])
			}
		}
	}
}

// The double-buffered hot path must be externally indistinguishable from
// the synchronous one: bit-identical outputs and LSEs, and exactly equal
// per-link modeled byte/message accounting (the in-process transport has no
// wire counters, so full LinkStat equality is required here).
func TestOverlapMatchesSynchronousExactly(t *testing.T) {
	prev := SetOverlap(false)
	defer SetOverlap(prev)
	for _, n := range []int{2, 3, 4} {
		SetOverlap(false)
		syncOuts, syncLinks, syncTotal := runOverlapScenario(t, n)
		SetOverlap(true)
		ovOuts, ovLinks, ovTotal := runOverlapScenario(t, n)
		requireSameOutputs(t, syncOuts, ovOuts)
		if !reflect.DeepEqual(syncLinks, ovLinks) {
			t.Fatalf("n=%d link accounting differs:\nsync:    %+v\noverlap: %+v", n, syncLinks, ovLinks)
		}
		if !reflect.DeepEqual(syncTotal, ovTotal) {
			t.Fatalf("n=%d total accounting differs:\nsync:    %+v\noverlap: %+v", n, syncTotal, ovTotal)
		}
	}
}

// The occupancy telemetry must attribute steps to the mode that actually
// ran them: overlapped runs advance Steps (and only those can be Hidden),
// synchronous runs advance SyncSteps.
func TestOverlapCountersTrackMode(t *testing.T) {
	prev := SetOverlap(true)
	defer SetOverlap(prev)
	before := OverlapSnapshot()
	runOverlapScenario(t, 3)
	mid := OverlapSnapshot()
	if mid.Steps <= before.Steps {
		t.Fatalf("overlapped run advanced Steps %d -> %d", before.Steps, mid.Steps)
	}
	if mid.SyncSteps != before.SyncSteps {
		t.Fatalf("overlapped run advanced SyncSteps %d -> %d", before.SyncSteps, mid.SyncSteps)
	}
	if mid.Hidden < before.Hidden || mid.Hidden > mid.Steps {
		t.Fatalf("hidden count %d outside [%d, %d]", mid.Hidden, before.Hidden, mid.Steps)
	}
	SetOverlap(false)
	runOverlapScenario(t, 3)
	after := OverlapSnapshot()
	if after.SyncSteps <= mid.SyncSteps {
		t.Fatalf("synchronous run advanced SyncSteps %d -> %d", mid.SyncSteps, after.SyncSteps)
	}
	if after.Steps != mid.Steps {
		t.Fatalf("synchronous run advanced overlapped Steps %d -> %d", mid.Steps, after.Steps)
	}
}

// tcpMesh hosts every rank of a loopback TCP mesh in one transport, so one
// World runs the ranks on goroutines while every payload crosses a socket
// through the wire codec. It reports no wire counters: the tests compare
// modeled traffic only.
type tcpMesh []*transport.TCP

func joinLoopback(t *testing.T, n int) tcpMesh {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	mesh := make(tcpMesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range mesh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mesh[i], _, errs[i] = transport.Join(transport.TCPConfig{
				World: n, Rank: i, Addrs: addrs, Listener: lns[i], RendezvousTimeout: 10 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() { mesh.Close() })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", i, err)
		}
	}
	return mesh
}

func (m tcpMesh) WorldSize() int { return len(m) }

func (m tcpMesh) LocalRanks() []int {
	out := make([]int, len(m))
	for i := range out {
		out[i] = i
	}
	return out
}

func (m tcpMesh) Send(src, dst int, v any, d time.Duration) error { return m[src].Send(src, dst, v, d) }
func (m tcpMesh) Recv(dst, src int, d time.Duration) (any, error) { return m[dst].Recv(dst, src, d) }
func (m tcpMesh) Waiting(dst, src int) bool                       { return m[dst].Waiting(dst, src) }
func (m tcpMesh) Recycle(dst int, v any)                          { m[dst].Recycle(dst, v) }
func (m tcpMesh) FailLink(src, dst int)                           { m[src].FailLink(src, dst) }
func (m tcpMesh) HealLink(src, dst int)                           { m[src].HealLink(src, dst) }
func (m tcpMesh) Failures() <-chan transport.FailureEvent         { return nil }
func (m tcpMesh) WireLinks() []wire.LinkStat                      { return nil }

func (m tcpMesh) Close() error {
	for _, tp := range m {
		if tp != nil {
			tp.Close()
		}
	}
	return nil
}

// The ring has one exchange path, and it is exact on every transport: over
// the in-process mailbox, a chaos-wrapped mailbox (an empty schedule: no
// faults) and a loopback TCP mesh, the overlapped scenario's outputs and
// modeled accounting equal the synchronous oracle's on the same transport,
// and only the overlapped counters move.
func TestOneExchangePathOnEveryTransport(t *testing.T) {
	transports := []struct {
		name string
		make func(t *testing.T, n int) transport.Transport
	}{
		{"mem", func(t *testing.T, n int) transport.Transport { return transport.NewMem(n) }},
		{"chaos-mem", func(t *testing.T, n int) transport.Transport {
			tp, err := chaos.NewInjector(nil).Wrap(transport.NewMem(n))
			if err != nil {
				t.Fatal(err)
			}
			return tp
		}},
		{"tcp", func(t *testing.T, n int) transport.Transport { return joinLoopback(t, n) }},
	}
	run := func(t *testing.T, tp transport.Transport, n int) ([]*attention.Output, []wire.LinkStat, comm.Stats) {
		h := newHarness(t, 77, n, 2)
		h.world = comm.NewWorldOver(tp, comm.WithRecvTimeout(5*time.Second))
		h.prefillTurn([]int{8, 6}, PassKVPrefill, "pass-kv")
		h.prefillTurn([]int{3, 5}, PassQPrefill, "pass-q")
		h.decodeStep(0)
		h.decodeStep(1)
		return h.outs, h.world.LinkStats(), h.world.TotalStats()
	}
	prev := SetOverlap(true)
	defer SetOverlap(prev)
	for _, tc := range transports {
		for _, n := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				SetOverlap(false)
				syncOuts, syncLinks, syncTotal := run(t, tc.make(t, n), n)
				SetOverlap(true)
				before := OverlapSnapshot()
				outs, links, total := run(t, tc.make(t, n), n)
				after := OverlapSnapshot()
				requireSameOutputs(t, syncOuts, outs)
				if !reflect.DeepEqual(syncLinks, links) {
					t.Fatalf("link accounting differs:\nsync:    %+v\noverlap: %+v", syncLinks, links)
				}
				if !reflect.DeepEqual(syncTotal, total) {
					t.Fatalf("total accounting differs:\nsync:    %+v\noverlap: %+v", syncTotal, total)
				}
				if after.Steps <= before.Steps {
					t.Fatalf("overlapped run advanced Steps %d -> %d", before.Steps, after.Steps)
				}
				if after.SyncSteps != before.SyncSteps {
					t.Fatalf("overlapped run advanced SyncSteps %d -> %d", before.SyncSteps, after.SyncSteps)
				}
			})
		}
	}
}
