package perf

import (
	"fmt"
	"io"
)

// Query is one cpcalc evaluation: a modeled deployment, a prefill of T new
// tokens against P cached ones, the decode batch, and optional TTFT/TTIT
// targets in seconds that add a deployment plan when either is set.
type Query struct {
	System                 System
	T, P, Batch            int
	TTFTTarget, TTITTarget float64
}

// WriteFormulas prints the paper's analytical formulas for q: the
// pass-KV/pass-Q selection thresholds (Equations 1-3 and 5), predicted
// TTFT/TTIT with full breakdowns, KV-cache capacity, the MFU accounting of
// Appendix A, and the deployment plan when q has targets. Like the other
// Write functions of this package it leaves write errors to w to report,
// as a bufio.Writer's Flush does.
func WriteFormulas(w io.Writer, q Query) error {
	sys := q.System
	if err := sys.Validate(); err != nil {
		return err
	}
	m, plat := sys.Model, sys.Plat
	fmt.Fprintf(w, "system: %s on %s, model %s (NH=%d NKV=%d D=%d layers=%d)\n\n",
		sys.Name(), plat.Name, m.Name, m.NumHeads, m.NumKV, m.ModelDim, m.Layers)

	in := NewInputs(m, plat, sys.CPNodes)
	fmt.Fprintln(w, "-- variant-selection thresholds --")
	fmt.Fprintf(w, "Eq 1  miss-rate threshold (2*NKV/NH):        %.4f\n", Eq1Threshold(m))
	fmt.Fprintf(w, "Eq 2  min new tokens for hidden pass-KV:     %.0f\n", Eq2MinNewTokens(in))
	fmt.Fprintf(w, "Eq 3  min total context for hidden pass-Q:   %.0f\n", Eq3MinContext(in))
	fmt.Fprintf(w, "Alg 1 choice at T=%d P=%d:                   %v\n", q.T, q.P, Algorithm1(in, q.T, q.P))
	fmt.Fprintf(w, "Alg 5 choice at T=%d P=%d:                   %v\n", q.T, q.P, Algorithm5(in, q.T, q.P))
	fmt.Fprintf(w, "paper empirical h(T,P):                      %.3f -> %v\n\n",
		PaperEmpirical().Score(q.T, q.P), PaperEmpirical().Choose(q.T, q.P))

	fmt.Fprintln(w, "-- predicted prefill (TTFT) --")
	for _, v := range []Variant{PassKV, PassQ} {
		b := sys.Prefill(q.T, q.P, v)
		fmt.Fprintf(w, "%-8s total %8.3f s  (gemm %.3f, attn %.3f, allreduce %.3f, ring-exposed %.3f, all2all %.3f, base %.3f)\n",
			v, b.Total, b.GEMM, b.Attn, b.AllReduce, b.RingExposed, b.All2All, b.Base)
	}
	best, _, _ := sys.PrefillBest(q.T, q.P)
	fmt.Fprintf(w, "oracle winner: %v\n\n", best)

	fmt.Fprintln(w, "-- predicted decode (TTIT) --")
	d := sys.Decode(q.T+q.P, q.Batch)
	fmt.Fprintf(w, "total %.2f ms  (weights %.2f, ar-latency %.2f, attn-loop %.2f, sendrecv %.2f, all2all %.2f ms)\n\n",
		d.Total*1000, d.WeightRead*1000, d.ARLatency*1000, d.AttnLoop*1000, d.SendRecv*1000, d.All2All*1000)

	fmt.Fprintln(w, "-- capacity and utilization --")
	fmt.Fprintf(w, "KV capacity: %.0f tokens across %d CP nodes\n", sys.KVCapacityTokens(), sys.CPNodes)
	perGPU, util := sys.MFU(q.T, PassKV)
	fmt.Fprintf(w, "full-prefill MFU at T=%d: %.0f TF/s per GPU (%.1f%% of BF16 peak)\n",
		q.T, perGPU/1e12, util*100)
	fmt.Fprintf(w, "speed-of-light TTFT bound: %.3f s (plan runs at %.2fx of bound)\n\n",
		sys.SpeedOfLight(q.T), sys.Efficiency(q.T))

	if q.TTFTTarget <= 0 && q.TTITTarget <= 0 {
		return nil
	}
	fmt.Fprintln(w, "-- deployment plan --")
	plan, err := PlanDeployment(PlanRequest{
		Model: m, Plat: plat, Context: q.T + q.P,
		TTFTTarget: q.TTFTTarget, TTITTarget: q.TTITTarget, DecodeBatch: q.Batch,
	})
	if err != nil {
		fmt.Fprintf(w, "no feasible plan: %v\n", err)
		return nil
	}
	fmt.Fprintf(w, "smallest group meeting constraints: %s (%d GPUs)\n",
		plan.System.Name(), plan.System.TotalGPUs())
	fmt.Fprintf(w, "TTFT %.2f s (target %.2f, met=%v)  TTIT %.2f ms (target %.2f ms, met=%v)\n",
		plan.TTFT, q.TTFTTarget, plan.MeetsTTFT, plan.TTIT*1000, q.TTITTarget*1000, plan.MeetsTTIT)
	if !plan.MeetsTTIT {
		fmt.Fprintln(w, "note: decode regresses as CP grows (§4.3); consider disaggregated prefill/decode")
	}
	return nil
}
