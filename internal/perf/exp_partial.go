package perf

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("table4", "TTFT for pass-KV vs pass-Q varying P and T with P+T=128000 on CP4", table4)
	register("fig9", "pass-KV / pass-Q speed ratio vs KV cache miss rate (CP4, 128K total)", fig9)
	register("table5", "Time breakdown per ring iteration at 2.5% and 10% miss rate (CP4)", table5)
	register("fig10", "Appendix D: empirical heuristic fit h(T,P) on the perf-model oracle", fig10)
}

// paperTable4 holds the paper's measured TTFT (ms) per miss rate for the
// pass-KV and pass-Q columns, keyed by T.
var paperTable4 = map[int][2]float64{
	1280:   {1023.39, 898.71},
	3200:   {1110.18, 1046.43},
	4160:   {1298.92, 1280.10},
	6400:   {1305.56, 1302.01},
	12800:  {2080.67, 2205.27},
	25600:  {3353.02, 3617.02},
	38400:  {4629.23, 4922.52},
	51200:  {5745.08, 6217.83},
	64000:  {6845.21, 7367.99},
	76800:  {7890.35, 8468.66},
	89600:  {8697.27, 9666.62},
	102400: {10105.78, 10652.39},
	115200: {11136.40, 11571.62},
	128000: {11462.15, 12360.57},
}

func table4() (*table, error) {
	s := gtt(4, 1)
	t := &table{
		ID:    "table4",
		Title: title("table4"),
		Header: []string{"P", "T", "miss", "pass-KV (ms)", "pass-Q (ms)", "winner",
			"paper KV (ms)", "paper Q (ms)", "paper winner"},
	}
	for _, p := range workload.HitRateSweep(128000, workload.Table4MissRates()) {
		kv := s.Prefill(p.T, p.P, PassKV).Total
		q := s.Prefill(p.T, p.P, PassQ).Total
		winner := PassKV
		if q < kv {
			winner = PassQ
		}
		paperKV, paperQ, paperWinner := "-", "-", "-"
		if ref, ok := paperTable4[p.T]; ok {
			paperKV = fmt.Sprintf("%.0f", ref[0])
			paperQ = fmt.Sprintf("%.0f", ref[1])
			if ref[0] <= ref[1] {
				paperWinner = PassKV.String()
			} else {
				paperWinner = PassQ.String()
			}
		}
		t.addRow(fmt.Sprintf("%d", p.P), fmt.Sprintf("%d", p.T), pct(p.MissRate()),
			ms(kv), ms(q), winner.String(), paperKV, paperQ, paperWinner)
	}
	t.Notes = append(t.Notes,
		"paper shape: TTFT linear in miss rate; pass-Q wins below ~5% miss, pass-KV above",
		"absolute model values at low miss rates undershoot the paper's (unmodeled per-forward host overheads); the per-iteration breakdown (table5) and the crossover location match")
	return t, nil
}

func fig9() (*table, error) {
	s := gtt(4, 1)
	t := &table{
		ID:     "fig9",
		Title:  title("fig9"),
		Header: []string{"miss rate", "pass-KV/pass-Q ratio", "paper ratio"},
	}
	for _, p := range workload.HitRateSweep(128000, workload.Table4MissRates()) {
		kv := s.Prefill(p.T, p.P, PassKV).Total
		q := s.Prefill(p.T, p.P, PassQ).Total
		paper := "-"
		if ref, ok := paperTable4[p.T]; ok {
			paper = fmt.Sprintf("%.3f", ref[0]/ref[1])
		}
		t.addRow(pct(p.MissRate()), fmt.Sprintf("%.3f", kv/q), paper)
	}
	// Locate the crossover by bisection.
	lo, hi := 0.005, 0.20
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		T := int(mid * 128000)
		v, _, _ := s.PrefillBest(T, 128000-T)
		if v == PassQ {
			lo = mid
		} else {
			hi = mid
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("model crossover at %.1f%% miss rate (paper: ~5%%, with <1%% latency difference nearby)", lo*100))
	return t, nil
}

func table5() (*table, error) {
	s := gtt(4, 1)
	t := &table{
		ID:    "table5",
		Title: title("table5"),
		Header: []string{"miss rate", "variant", "SendRecv (us)", "ATTN (us)", "All2All (us)",
			"paper SendRecv", "paper ATTN", "paper All2All"},
	}
	layers := float64(s.Model.Layers)
	rows := []struct {
		missPct float64
		T, P    int
		// paper values in microseconds: sendrecvKV, attn, sendrecvQ, all2all
		pKV, pAttn, pQ, pA2A float64
	}{
		{2.5, 3200, 124800, 627, 414, 166, 424},
		{10, 12800, 115200, 631, 1608, 544, 1023},
	}
	for _, r := range rows {
		kv := s.Prefill(r.T, r.P, PassKV)
		q := s.Prefill(r.T, r.P, PassQ)
		t.addRow(fmt.Sprintf("%.1f%%", r.missPct), "pass-KV",
			us(kv.SendRecvIter), us(kv.AttnIter), "-",
			fmt.Sprintf("%.0f", r.pKV), fmt.Sprintf("%.0f", r.pAttn), "-")
		t.addRow(fmt.Sprintf("%.1f%%", r.missPct), "pass-Q",
			us(q.SendRecvIter), us(q.AttnIter), us(q.All2All/layers),
			fmt.Sprintf("%.0f", r.pQ), fmt.Sprintf("%.0f", r.pAttn), fmt.Sprintf("%.0f", r.pA2A))
	}
	t.Notes = append(t.Notes,
		"paper: at 2.5% miss, exposed pass-KV comm (N-1)*(SendRecv-ATTN) exceeds pass-Q's All2All -> pass-Q wins; at 10% SendRecv hides under ATTN -> pass-KV wins")
	return t, nil
}

func fig10() (*table, error) {
	s := gtt(4, 1)
	grid := oracleLabels(s, workload.LogGrid(256, 262144, 0.002, 1.0, 14, 12))
	fit, err := FitEmpirical(grid)
	if err != nil {
		return nil, err
	}
	ev := evaluate(s, fit.Choose, grid)
	paper := PaperEmpirical()

	t := &table{
		ID:     "fig10",
		Title:  title("fig10"),
		Header: []string{"quantity", "fitted (this repo)", "paper"},
	}
	t.addRow("alpha (log T)", fmt.Sprintf("%.3f", fit.Alpha), fmt.Sprintf("%.3f", paper.Alpha))
	t.addRow("beta (log miss)", fmt.Sprintf("%.3f", fit.Beta), fmt.Sprintf("%.3f", paper.Beta))
	t.addRow("gamma", fmt.Sprintf("%.3f", fit.Gamma), fmt.Sprintf("%.3f", paper.Gamma))
	t.addRow("training points", fmt.Sprintf("%d", ev.Points), "-")
	t.addRow("classification accuracy", pct(ev.accuracy()), "trend-consistent with misclassifications where diff < 1%")
	t.addRow("mean regret vs oracle", pct(ev.MeanRegret), "-")

	// Also compare the analytical heuristics on the same grid.
	in := NewInputs(model.Llama3405B(), GTT(), 4)
	a1 := evaluate(s, func(T, P int) Variant { return Algorithm1(in, T, P) }, grid)
	a5 := evaluate(s, func(T, P int) Variant { return Algorithm5(in, T, P) }, grid)
	t.addRow("Algorithm 1 accuracy", pct(a1.accuracy()), "-")
	t.addRow("Algorithm 5 accuracy", pct(a5.accuracy()), "-")
	t.Notes = append(t.Notes,
		"beta > 0 in both fits: higher miss rate pushes toward pass-KV, the Figure 10 trend",
		"decision boundary: for each T there is a miss-rate threshold between pass-Q (below) and pass-KV (above)")
	return t, nil
}
