// A discrete-event simulator of the ring-attention pipeline. Where
// System.Prefill predicts latency with the closed-form overlap expression
// (compute + (N−1)·max(compute, transfer)), SimulateRing derives the same
// schedule from first principles — per-rank compute serialization,
// block-forwarding dependencies, and NIC occupancy — so the two can
// cross-validate, and so non-uniform conditions the closed form cannot
// express (stragglers, slow links, jitter) can be studied.
//
// The model: N ranks run N iterations each. At iteration j, rank r computes
// attention on the block it currently holds while forwarding that block to
// rank r+1. A block can be forwarded as soon as it is held (forwarding does
// not wait for compute — the overlap the paper relies on), but a rank's NIC
// sends serially and compute is serial per rank. pass-Q adds a trailing
// All2All that starts when every rank has finished its partials.

package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Timeline entries are trace.Span records — the same span type the serving
// engine's recorder buffers and exports — with simulated time mapped onto
// nanoseconds (Start/Dur) and the iteration index in Args["iter"]. Span
// names label the activity:
const (
	spanCompute = "compute"
	spanXfer    = "xfer"
	spanAll2All = "all2all"
)

// simSpan builds a timeline entry from simulated seconds.
func simSpan(rank, iter int, name string, start, end float64) trace.Span {
	return trace.Span{
		Name: name, Cat: "ringsim", Rank: rank, Seq: trace.NoSeq, Epoch: 1,
		Start: int64(math.Round(start * 1e9)),
		Dur:   int64(math.Round((end - start) * 1e9)),
		Args:  map[string]int64{"iter": int64(iter)},
	}
}

// spanEnd returns a timeline entry's end in simulated seconds.
func spanEnd(s trace.Span) float64 { return float64(s.Start+s.Dur) / 1e9 }

// RingSpec parameterizes one simulated ring pass (one layer's attention).
type RingSpec struct {
	N int
	// Compute[r][j]: seconds rank r spends computing its j-th partial.
	Compute [][]float64
	// Xfer[r][j]: seconds for the block rank r forwards at iteration j to
	// cross the link r -> r+1. Iteration N-1 sends nothing.
	Xfer [][]float64
	// A2A[r]: rank r's share of the trailing All2All (0 = pass-KV).
	A2A []float64
}

// Validate checks shape consistency.
func (s RingSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("perf: ring spec: non-positive ring size %d", s.N)
	}
	if len(s.Compute) != s.N || len(s.Xfer) != s.N {
		return fmt.Errorf("perf: ring spec: compute/xfer rows %d/%d for %d ranks", len(s.Compute), len(s.Xfer), s.N)
	}
	for r := 0; r < s.N; r++ {
		if len(s.Compute[r]) != s.N || len(s.Xfer[r]) != s.N {
			return fmt.Errorf("perf: ring spec: rank %d has %d/%d iters, want %d",
				r, len(s.Compute[r]), len(s.Xfer[r]), s.N)
		}
		for j := 0; j < s.N; j++ {
			if s.Compute[r][j] < 0 || s.Xfer[r][j] < 0 {
				return fmt.Errorf("perf: ring spec: negative duration at rank %d iter %d", r, j)
			}
		}
	}
	if s.A2A != nil && len(s.A2A) != s.N {
		return fmt.Errorf("perf: ring spec: %d a2a entries for %d ranks", len(s.A2A), s.N)
	}
	return nil
}

// Uniform builds a spec where every iteration computes and transfers in
// the same time — the regime of the closed-form perf model.
func Uniform(n int, compute, xfer, a2a float64) RingSpec {
	s := RingSpec{N: n, Compute: make([][]float64, n), Xfer: make([][]float64, n)}
	if a2a > 0 {
		s.A2A = make([]float64, n)
	}
	for r := 0; r < n; r++ {
		s.Compute[r] = make([]float64, n)
		s.Xfer[r] = make([]float64, n)
		for j := 0; j < n; j++ {
			s.Compute[r][j] = compute
			if j < n-1 {
				s.Xfer[r][j] = xfer
			}
		}
		if a2a > 0 {
			s.A2A[r] = a2a
		}
	}
	return s
}

// ScaleLinkXfer multiplies the transfer times of the link rank -> rank+1 by
// f (a slow or jittery link).
func (s *RingSpec) ScaleLinkXfer(rank int, f float64) {
	for j := range s.Xfer[rank] {
		s.Xfer[rank][j] *= f
	}
}

// RingResult is the simulated schedule.
type RingResult struct {
	Makespan   float64
	RankFinish []float64
	Timeline   []trace.Span
	// ExposedComm[r]: idle time on rank r attributable to waiting for
	// blocks, makespan accounting's analogue of the paper's "exposed"
	// SendRecv time.
	ExposedComm []float64
}

// SimulateRing derives the full schedule of one ring pass.
func SimulateRing(spec RingSpec) (*RingResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.N
	avail := make([][]float64, n) // avail[r][j]: when rank r holds block j
	computeEnd := make([][]float64, n)
	sendEnd := make([]float64, n) // NIC busy-until per rank
	for r := 0; r < n; r++ {
		avail[r] = make([]float64, n)
		computeEnd[r] = make([]float64, n)
	}
	res := &RingResult{RankFinish: make([]float64, n), ExposedComm: make([]float64, n)}

	// Iterations advance in lockstep dependency order: block availability at
	// iteration j+1 depends only on sends issued at iteration j.
	for j := 0; j < n; j++ {
		for r := 0; r < n; r++ {
			prevEnd := 0.0
			if j > 0 {
				prevEnd = computeEnd[r][j-1]
			}
			start := math.Max(prevEnd, avail[r][j])
			end := start + spec.Compute[r][j]
			computeEnd[r][j] = end
			res.Timeline = append(res.Timeline, simSpan(r, j, spanCompute, start, end))
			if start > prevEnd {
				res.ExposedComm[r] += start - prevEnd
			}
			if j < n-1 {
				sendStart := math.Max(avail[r][j], sendEnd[r])
				sendFinish := sendStart + spec.Xfer[r][j]
				sendEnd[r] = sendFinish
				next := (r + 1) % n
				avail[next][j+1] = sendFinish
				res.Timeline = append(res.Timeline, simSpan(r, j, spanXfer, sendStart, sendFinish))
			}
		}
	}
	allDone := 0.0
	for r := 0; r < n; r++ {
		res.RankFinish[r] = computeEnd[r][n-1]
		if res.RankFinish[r] > allDone {
			allDone = res.RankFinish[r]
		}
	}
	if spec.A2A != nil {
		// The All2All is a collective: it begins once every rank has its
		// partials and ends after the slowest share.
		maxA2A := 0.0
		for r := 0; r < n; r++ {
			if spec.A2A[r] > maxA2A {
				maxA2A = spec.A2A[r]
			}
			res.Timeline = append(res.Timeline, simSpan(r, n, spanAll2All, allDone, allDone+spec.A2A[r]))
		}
		for r := 0; r < n; r++ {
			res.RankFinish[r] = allDone + maxA2A
		}
		allDone += maxA2A
	}
	res.Makespan = allDone
	sort.Slice(res.Timeline, func(i, k int) bool {
		if res.Timeline[i].Start != res.Timeline[k].Start {
			return res.Timeline[i].Start < res.Timeline[k].Start
		}
		return res.Timeline[i].Rank < res.Timeline[k].Rank
	})
	return res, nil
}

// ClosedForm is the overlap expression System.Prefill charges for a uniform
// ring: compute + (N−1)·max(compute, xfer) + a2a.
func ClosedForm(n int, compute, xfer, a2a float64) float64 {
	if n == 1 {
		return compute + a2a
	}
	return compute + float64(n-1)*math.Max(compute, xfer) + a2a
}

// Gantt renders an ASCII timeline with the given horizontal resolution
// (seconds per character). Compute is '#', transfer '-', All2All '='.
func (r *RingResult) Gantt(secPerChar float64) string {
	if secPerChar <= 0 || r.Makespan == 0 {
		return ""
	}
	width := int(r.Makespan/secPerChar) + 1
	ranks := 0
	for _, s := range r.Timeline {
		if s.Rank+1 > ranks {
			ranks = s.Rank + 1
		}
	}
	rows := make([][]byte, ranks)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	glyph := map[string]byte{spanCompute: '#', spanXfer: '-', spanAll2All: '='}
	for _, s := range r.Timeline {
		lo := int(float64(s.Start) / 1e9 / secPerChar)
		hi := int(spanEnd(s) / secPerChar)
		for i := lo; i <= hi && i < width; i++ {
			// Compute wins over transfer when they overlap on screen.
			if rows[s.Rank][i] == '.' || s.Name == spanCompute {
				rows[s.Rank][i] = glyph[s.Name]
			}
		}
	}
	var b strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&b, "rank %d |%s|\n", i, row)
	}
	return b.String()
}
