package ring

import (
	"sync/atomic"

	"repro/internal/comm"
)

// This file implements the communication/compute overlap the paper's
// latency model assumes (§3.3): on ring step j a rank issues the exchange
// of its current block for step j+1 and computes attention on the block it
// already holds while the transfer is in flight. The exchange is the same
// comm.Rank.SendRecv call the synchronous path makes — same per-link byte
// accounting under the world's stats mutex, same error surface — moved onto
// a helper goroutine; the rank waits for it before touching the received
// block, so at most one communication op is ever in flight per rank (the
// comm contract) and the compute order, outputs, and LinkStats are
// bit-for-bit those of the synchronous loop.

// overlapEnabled gates the double-buffered hot path. On by default; the
// synchronous loop stays behind SetOverlap as the semantics oracle of the
// parity tests; no command exposes it.
var overlapEnabled atomic.Bool

func init() { overlapEnabled.Store(true) }

// SetOverlap toggles the ring communication/compute overlap and returns the
// previous setting. Safe to call concurrently, but toggling mid-pass only
// affects steps issued after the call.
func SetOverlap(on bool) bool { return overlapEnabled.Swap(on) }

var (
	statOverlapSteps  atomic.Int64 // ring exchanges issued concurrently with compute
	statOverlapHidden atomic.Int64 // of those, transfers that finished before the compute did
	statSyncSteps     atomic.Int64 // exchanges run synchronously (overlap disabled)
)

// OverlapStats reports how often the ring hot path managed to hide a
// transfer entirely behind attention compute. Occupancy near 1 means the
// ring is compute-bound and communication is free, the regime the paper's
// scalability argument depends on; near 0 means transfers outlast compute
// and the ring is bandwidth-bound.
type OverlapStats struct {
	Enabled   bool    `json:"enabled"`
	Steps     int64   `json:"steps"`        // exchanges overlapped with compute
	Hidden    int64   `json:"hidden_steps"` // transfers fully hidden behind compute
	SyncSteps int64   `json:"sync_steps"`   // exchanges run synchronously
	Occupancy float64 `json:"occupancy"`    // Hidden / Steps, 0 when no overlapped steps
}

// OverlapSnapshot returns the current overlap counters.
func OverlapSnapshot() OverlapStats {
	s := OverlapStats{
		Enabled:   overlapEnabled.Load(),
		Steps:     statOverlapSteps.Load(),
		Hidden:    statOverlapHidden.Load(),
		SyncSteps: statSyncSteps.Load(),
	}
	if s.Steps > 0 {
		s.Occupancy = float64(s.Hidden) / float64(s.Steps)
	}
	return s
}

type commResult struct {
	payload any
	err     error
}

// inflight is one ring exchange in flight (or, with overlap disabled, one
// already completed synchronously). Exactly one of wait or drain must be
// called before the owning rank issues its next communication op.
type inflight struct {
	ch         chan commResult
	overlapped bool
}

// startSendRecv issues rank.SendRecv(next, prev, payload, bytes). With
// overlap enabled the call runs on a helper goroutine and this returns
// immediately so the caller can compute on its current block; otherwise the
// call completes here and the result is buffered. payload must be treated
// as read-only from this point — it is circulating.
func startSendRecv(rank *comm.Rank, next, prev int, payload any, bytes float64) *inflight {
	ch := make(chan commResult, 1)
	if !overlapEnabled.Load() {
		recv, err := rank.SendRecv(next, prev, payload, bytes)
		ch <- commResult{recv, err}
		statSyncSteps.Add(1)
		return &inflight{ch: ch}
	}
	go func() {
		recv, err := rank.SendRecv(next, prev, payload, bytes)
		ch <- commResult{recv, err}
	}()
	statOverlapSteps.Add(1)
	return &inflight{ch: ch, overlapped: true}
}

// wait blocks until the exchange completes and returns the received payload.
// An overlapped transfer that is already done when compute finishes counts
// as hidden — the occupancy numerator.
func (f *inflight) wait() (any, error) {
	if f.overlapped {
		select {
		case r := <-f.ch:
			statOverlapHidden.Add(1)
			return r.payload, r.err
		default:
		}
	}
	r := <-f.ch
	return r.payload, r.err
}

// drain abandons an exchange whose result no longer matters (the local
// compute failed first) after letting it finish, so the mailbox slot is
// consumed and the rank's next communication op cannot receive a stale
// block. Blocks at most as long as the synchronous path would have blocked
// inside SendRecv before reaching the same compute error. Nil-safe so
// error paths can call it unconditionally.
func (f *inflight) drain() {
	if f == nil {
		return
	}
	<-f.ch
}
