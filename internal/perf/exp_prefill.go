package perf

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("table2", "TP vs CP communication and memory cost per transformer block", table2)
	register("table3", "GQA attention complexity for full and partial prefill", table3)
	register("fig6a", "Llama3 405B pass-KV full prefill latency on GTT (RDMA), CP1/2/4/8", fig6a)
	register("fig6b", "Llama3 405B pass-KV full prefill latency on GTI (TCP), CP1/2/4", fig6b)
	register("fig7", "Scaling ratio of context parallel vs multi-node tensor parallel, 128K prefill", fig7)
	register("fig8", "TTFT of 128K-1M context with CP8 and CP16", fig8)
	register("mfu", "Appendix A: FLOPs accounting and model FLOPS utilization at 1M context", mfu)
}

// table2 evaluates the Table 2 formulas for Llama3 405B at a sample length
// and cross-checks the 32x TP/CP traffic ratio.
func table2() (*table, error) {
	c := model.Llama3405B()
	t := &table{
		ID:     "table2",
		Title:  title("table2"),
		Header: []string{"quantity", "TP", "CP"},
	}
	const T = 8192
	t.addRow("collective", "AllReduce", "SendRecv")
	t.addRow("comm per 2 linear (bytes)", fmt.Sprintf("%.0f", c.TPCommBytesPerBlock(T)), "0")
	t.addRow("comm per attn (bytes)", "0", fmt.Sprintf("%.0f", c.CPCommBytesPerBlock(T)))
	t.addRow("total comm per block (bytes)", fmt.Sprintf("%.0f", c.TPCommBytesPerBlock(T)),
		fmt.Sprintf("%.0f", c.CPCommBytesPerBlock(T)))
	t.addRow("parameter size per GPU", "W/N_TP", "W")
	ratio := c.TPCommBytesPerBlock(T) / c.CPCommBytesPerBlock(T)
	t.Notes = append(t.Notes,
		fmt.Sprintf("T=%d; TP/CP traffic ratio = %.0fx (2*NH/NKV = %d for Llama3 405B)", T, ratio, 2*c.NumHeads/c.NumKV),
		"functional counterpart: internal/ring byte-accounting tests verify counted bytes on the simulated cluster")
	return t, nil
}

// table3 evaluates Table 3's complexity formulas at representative shapes.
func table3() (*table, error) {
	c := model.Llama3405B()
	t := &table{
		ID:     "table3",
		Title:  title("table3"),
		Header: []string{"case", "T", "P", "FLOPs/layer", "Q bytes", "KV bytes"},
	}
	cases := []struct {
		name string
		T, P int
	}{
		{"full prefill", 128000, 0},
		{"partial 10%", 12800, 115200},
		{"partial 1%", 1280, 126720},
		{"decode", 1, 127999},
	}
	for _, cs := range cases {
		t.addRow(cs.name, fmt.Sprintf("%d", cs.T), fmt.Sprintf("%d", cs.P),
			fmt.Sprintf("%.3g", c.AttnFLOPsPartial(cs.T, cs.P)),
			fmt.Sprintf("%.3g", c.QBytes(cs.T)),
			fmt.Sprintf("%.3g", c.KVBytes(cs.T, cs.P)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Q < KV exactly when miss rate <= 2*NKV/NH = %.3f (Equation 1)", 2*c.KVRatio()))
	return t, nil
}

func prefillSweep(id string, plat Platform, nodes []int) *table {
	t := &table{ID: id, Title: title(id)}
	t.Header = []string{"context"}
	for _, n := range nodes {
		t.Header = append(t.Header, fmt.Sprintf("CP%d (s)", n))
	}
	for _, ctx := range workload.ContextSweep(false) {
		row := []string{fmt.Sprintf("%d", ctx)}
		for _, n := range nodes {
			s := System{Model: model.Llama3405B(), Plat: plat, CPNodes: n, TPNodes: 1}
			row = append(row, sec(s.Prefill(ctx, 0, PassKV).Total))
		}
		t.addRow(row...)
	}
	return t
}

func fig6a() (*table, error) {
	t := prefillSweep("fig6a", GTT(), []int{1, 2, 4, 8})
	cp8 := gtt(8, 1).Prefill(128000, 0, PassKV).Total
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: CP8/GTT processes a 128K prefill in 5.85 s; model predicts %.2f s", cp8),
		"paper shape: latency halves as CP nodes double once context is large enough to hide SendRecv")
	return t, nil
}

func fig6b() (*table, error) {
	t := prefillSweep("fig6b", GTI(), []int{1, 2, 4})
	gttCP4 := gtt(4, 1).Prefill(128000, 0, PassKV).Total
	gtiCP4 := gti(4).Prefill(128000, 0, PassKV).Total
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: GTI (TCP, ~3 GB/s achieved) matches GTT scalability up to 4 nodes at large contexts; model: GTI CP4 %.2f s vs GTT CP4 %.2f s at 128K", gtiCP4, gttCP4))
	return t, nil
}

func fig7() (*table, error) {
	t := &table{
		ID:     "fig7",
		Title:  title("fig7"),
		Header: []string{"nodes", "TP scaling ratio", "CP pass-KV scaling ratio", "perfect"},
	}
	const T = 128000
	type pt struct {
		nodes  int
		tp, cp float64
	}
	var pts []pt
	for _, n := range []int{1, 2, 4, 8} {
		p := pt{nodes: n, cp: gtt(n, 1).ScalingRatio(T, PassKV)}
		p.tp = gtt(1, n).ScalingRatio(T, PassKV)
		pts = append(pts, p)
	}
	for _, p := range pts {
		t.addRow(fmt.Sprintf("%d", p.nodes), fmt.Sprintf("%.2f", p.tp),
			fmt.Sprintf("%.2f", p.cp), fmt.Sprintf("%d", p.nodes))
	}
	tp8 := pts[len(pts)-1]
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: CP2 vs TP16 differ ~15%% in ratio at 2 nodes, ~100%% at 8 nodes; model: %.0f%% at 8 nodes",
			(tp8.cp/tp8.tp-1)*100),
		"paper values (Fig 7): TP saturates near 2x while CP tracks perfect scaling")
	return t, nil
}

func fig8() (*table, error) {
	t := &table{
		ID:     "fig8",
		Title:  title("fig8"),
		Header: []string{"context", "CP8 TTFT (s)", "CP16 TTFT (s)", "paper CP16 (s)"},
	}
	paper := map[int]string{128000: "3.8", 256000: "-", 512000: "-", 1000000: "77"}
	for _, ctx := range workload.ContextSweep(true) {
		cp8 := gtt(8, 1)
		cp16 := gtt(16, 1)
		cp8Cell := "-"
		if float64(ctx) <= cp8.KVCapacityTokens() {
			cp8Cell = sec(cp8.Prefill(ctx, 0, PassKV).Total)
		}
		t.addRow(fmt.Sprintf("%d", ctx), cp8Cell,
			sec(cp16.Prefill(ctx, 0, PassKV).Total), paper[ctx])
	}
	half := gtt(16, 1).Prefill(500000, 0, PassKV).Total
	full := gtt(16, 1).Prefill(1000000, 0, PassKV).Total
	t.Notes = append(t.Notes,
		fmt.Sprintf("TTFT grows super-linearly past 512K: 2x context -> %.2fx TTFT (paper: >2x)", full/half),
		fmt.Sprintf("KV capacity: CP8 holds %.0f tokens, CP16 %.0f (paper's capacity argument, §4.2.3)",
			gtt(8, 1).KVCapacityTokens(), gtt(16, 1).KVCapacityTokens()))
	return t, nil
}

func mfu() (*table, error) {
	c := model.Llama3405B()
	s := gtt(16, 1)
	const T = 1_000_000
	gemm := c.GEMMFLOPs(1, T)
	attn := c.AttnFLOPsCausal(1, T)
	total := c.TotalPrefillFLOPs(1, T)
	ttft := s.Prefill(T, 0, PassKV).Total
	perGPU, util := s.MFU(T, PassKV)
	eff := s.ParallelEfficiency(T, PassKV)
	t := &table{
		ID:     "mfu",
		Title:  title("mfu"),
		Header: []string{"quantity", "model", "paper"},
	}
	t.addRow("GEMM FLOPs", fmt.Sprintf("%.3g", gemm), "8.1e17")
	t.addRow("ATTN FLOPs", fmt.Sprintf("%.3g", attn), "4.1e18")
	t.addRow("total FLOPs", fmt.Sprintf("%.3g", total), "4.9e18")
	t.addRow("TTFT (s)", sec(ttft), "77")
	t.addRow("achieved TF/s per H100", fmt.Sprintf("%.0f", perGPU/1e12), "502")
	t.addRow("parallelization efficiency", pct(eff), "93%")
	t.addRow("FLOPS utilization (BF16 peak 800TF)", pct(util), "~63%")
	return t, nil
}
