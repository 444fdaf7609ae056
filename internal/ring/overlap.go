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
// and at most one communication op is in flight per rank (the comm contract),
// so the compute order, outputs and LinkStats are bit-for-bit those of the
// synchronous loop. How the two halves are scheduled depends on the transport:
//
//   - On a mailbox (comm.Rank.SendsNeverBlock: the in-process transport) a
//     send completes without the receiver, so the rank sends on its own
//     goroutine at issue time and receives there after the compute. No helper
//     goroutine, no channel: a hop wakes its receiver directly, which is what
//     a decode step — six handoffs around a fraction of a millisecond of
//     arithmetic — is priced in.
//   - Elsewhere (TCP, where a large send blocks until the peer drains it, and
//     any chaos-wrapped transport) the whole SendRecv runs on a helper
//     goroutine and the rank waits on a channel for its result.
//
// hidden_steps counts the exchanges whose block had already arrived when the
// compute finished: on the helper path the SendRecv had returned, on the
// mailbox the payload was queued in the rank's box (comm.Rank.Waiting). Both
// mean the rank did not wait for the transfer.

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
// called before the owning rank issues its next communication op. The zero
// value is "nothing issued": wait must not be called on it, drain is a no-op,
// so error paths can drain unconditionally.
type inflight struct {
	// Mailbox path: the send already happened (sendErr is its result) and
	// wait receives from prev on the rank's goroutine.
	rank    *comm.Rank
	prev    int
	sendErr error
	// Helper-goroutine and synchronous paths: the SendRecv's result arrives
	// (or already sits) in ch.
	ch         chan commResult
	overlapped bool
}

// startSendRecv issues rank.SendRecv(next, prev, payload, bytes). With
// overlap enabled only the send (mailbox) or nothing (helper goroutine) has
// completed when this returns, so the caller can compute on its current
// block; otherwise the whole call completes here and the result is buffered.
// payload must be treated as read-only from this point — it is circulating.
func startSendRecv(rank *comm.Rank, next, prev int, payload any, bytes float64) inflight {
	if !overlapEnabled.Load() {
		ch := make(chan commResult, 1)
		recv, err := rank.SendRecv(next, prev, payload, bytes)
		ch <- commResult{recv, err}
		statSyncSteps.Add(1)
		return inflight{ch: ch}
	}
	statOverlapSteps.Add(1)
	if rank.SendsNeverBlock() {
		return inflight{rank: rank, prev: prev, sendErr: rank.Send(next, payload, bytes)}
	}
	ch := make(chan commResult, 1)
	go func() {
		recv, err := rank.SendRecv(next, prev, payload, bytes)
		ch <- commResult{recv, err}
	}()
	return inflight{ch: ch, overlapped: true}
}

// wait blocks until the exchange completes and returns the received payload.
// An overlapped transfer that is already done when compute finishes counts
// as hidden — the occupancy numerator.
func (f inflight) wait() (any, error) {
	if f.rank != nil {
		if f.sendErr != nil {
			return nil, f.sendErr // SendRecv does not receive after a failed send
		}
		if f.rank.Waiting(f.prev) {
			statOverlapHidden.Add(1)
		}
		return f.rank.Recv(f.prev)
	}
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
// inside SendRecv before reaching the same compute error.
func (f inflight) drain() {
	switch {
	case f.rank != nil:
		if f.sendErr == nil {
			_, _ = f.rank.Recv(f.prev) // the payload or a timeout: neither matters any more
		}
	case f.ch != nil:
		<-f.ch
	}
}
