package ring

import (
	"sync/atomic"

	"repro/internal/comm"
)

// This file implements the communication/compute overlap the paper's
// latency model assumes (§3.3): on ring step j a rank issues the exchange
// of its current block for step j+1 and computes attention on the block it
// already holds while the transfer is in flight; it takes the received block
// only after the compute. The exchange is the send and the receive of the
// same comm.Rank.SendRecv the synchronous path makes — same KindSendRecv
// per-link accounting under the world's stats mutex, same error surface —
// so the compute order, outputs and LinkStats are bit-for-bit those of the
// synchronous loop.
//
// There is one path on every transport: the rank sends on its own goroutine
// at issue time and receives there after the compute. No transport makes
// that send wait for the peer's receive. The in-process mailbox takes the
// payload into a slot with room (every slot, in the ring's lockstep). A TCP
// send encodes the frame and writes it to the socket. The peer's reader
// drains the socket into its inbox whether or not the peer rank is ready.
// A chaos-wrapped send may sleep or fail first, on the same goroutine.
//
// hidden_steps counts the exchanges whose block was already queued for the
// rank (comm.Rank.Waiting) when the compute finished: the rank did not wait
// for the transfer.

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

// inflight is one ring exchange in flight (or, with overlap disabled, one
// already completed synchronously). Exactly one of wait or drain must be
// called before the owning rank issues its next communication op. The zero
// value is "nothing issued": wait must not be called on it, drain is a no-op,
// so error paths can drain unconditionally.
type inflight struct {
	// Overlapped: the send already happened and wait receives from prev.
	rank *comm.Rank
	prev int
	// The synchronous SendRecv's result, or the overlapped send's error.
	recv any
	err  error
}

// startSendRecv issues rank.SendRecv(next, prev, payload, bytes). With
// overlap enabled only the send has completed when this returns, so the
// caller can compute on its current block; otherwise the whole call
// completes here. payload must be treated as read-only from this point — it
// is circulating.
func startSendRecv(rank *comm.Rank, next, prev int, payload any, bytes float64) inflight {
	if !overlapEnabled.Load() {
		recv, err := rank.SendRecv(next, prev, payload, bytes)
		statSyncSteps.Add(1)
		return inflight{recv: recv, err: err}
	}
	statOverlapSteps.Add(1)
	return inflight{rank: rank, prev: prev, err: rank.Send(next, payload, bytes)}
}

// wait returns the received payload, receiving it now if the exchange is
// overlapped. A block that is already queued when compute finishes counts as
// hidden — the occupancy numerator.
func (f inflight) wait() (any, error) {
	if f.rank == nil || f.err != nil {
		return f.recv, f.err // SendRecv does not receive after a failed send
	}
	if f.rank.Waiting(f.prev) {
		statOverlapHidden.Add(1)
	}
	return f.rank.Recv(f.prev)
}

// drain abandons an exchange whose result no longer matters (the local
// compute failed first) after consuming the peer's block, so the rank's next
// communication op cannot receive a stale one, and hands the block back to
// the transport. Blocks at most as long as the synchronous path would have
// blocked inside SendRecv before reaching the same compute error.
func (f inflight) drain() {
	if f.rank != nil && f.err == nil {
		if v, err := f.rank.Recv(f.prev); err == nil { // a timeout no longer matters
			f.rank.Recycle(v)
		}
	}
}
