package perf

import "fmt"

func init() {
	register("table6", "TTFT / TTIT for TP8 vs CP2 at 8K/32K/128K context, batch 1", table6)
	register("table7", "TTFT / TTIT for TP8, CP2, TP16, CP4, TP32 at 128K context", table7)
	register("table8", "Decode attention scaling with CP hosts: per-layer microseconds", table8)
}

func table6() (*table, error) {
	t := &table{
		ID:    "table6",
		Title: title("table6"),
		Header: []string{"context", "TP8 TTFT (ms)", "TP8 TTIT (ms)", "CP2 TTFT (ms)", "CP2 TTIT (ms)",
			"paper TP8", "paper CP2"},
	}
	paper := map[int][4]float64{ // ttft8, ttit8, ttftCP2, ttitCP2
		8000:   {1740, 44.51, 999, 65.61},
		32000:  {7658, 44.64, 4015, 65.66},
		128000: {42010, 46.26, 21042, 66.63},
	}
	for _, ctx := range []int{8000, 32000, 128000} {
		tp8 := gtt(1, 1)
		cp2 := gtt(2, 1)
		p := paper[ctx]
		t.addRow(fmt.Sprintf("%d", ctx),
			ms(tp8.Prefill(ctx, 0, PassKV).Total), fmt.Sprintf("%.2f", tp8.Decode(ctx, 1).Total*1000),
			ms(cp2.Prefill(ctx, 0, PassKV).Total), fmt.Sprintf("%.2f", cp2.Decode(ctx, 1).Total*1000),
			fmt.Sprintf("%.0f/%.2f", p[0], p[1]), fmt.Sprintf("%.0f/%.2f", p[2], p[3]))
	}
	t.Notes = append(t.Notes,
		"paper shape: CP2 halves TTFT at every context; TTIT stays nearly flat in context for both but CP2 pays a ~45% decode penalty")
	return t, nil
}

func table7() (*table, error) {
	t := &table{
		ID:     "table7",
		Title:  title("table7"),
		Header: []string{"config", "TTFT (ms)", "TTIT (ms)", "paper TTFT", "paper TTIT"},
	}
	const ctx = 128000
	rows := []struct {
		s          System
		ttft, ttit float64
	}{
		{gtt(1, 1), 42010, 46.26},
		{gtt(2, 1), 21042, 60.23},
		{gtt(1, 2), 29917, 39.52},
		{gtt(4, 1), 10950, 71.31},
		{gtt(1, 4), 19841, 47.30},
	}
	for _, r := range rows {
		t.addRow(r.s.Name(),
			ms(r.s.Prefill(ctx, 0, PassKV).Total),
			fmt.Sprintf("%.2f", r.s.Decode(ctx, 1).Total*1000),
			fmt.Sprintf("%.0f", r.ttft), fmt.Sprintf("%.2f", r.ttit))
	}
	t.Notes = append(t.Notes,
		"paper shape: CP wins TTFT at every node count; decode TTIT degrades for both CP and TP scaling (4 nodes worse than 1)")
	return t, nil
}

func table8() (*table, error) {
	t := &table{
		ID:    "table8",
		Title: title("table8"),
		Header: []string{"workload", "config", "eff ctx", "attn op (us)", "attn loop (us)",
			"SendRecv (us)", "All2All (us)", "whole pass-Q (us)", "paper whole"},
	}
	paperWhole := map[string]map[int]float64{
		"128K B=1": {1: 38.9, 2: 157.7, 4: 238.6},
		"32K B=4":  {1: 60.1, 2: 136.6, 4: 180.6},
	}
	for _, wl := range []struct {
		name  string
		ctx   int
		batch int
	}{
		{"128K B=1", 128000, 1},
		{"32K B=4", 32000, 4},
	} {
		for _, n := range []int{1, 2, 4} {
			b := gtt(n, 1).Decode(wl.ctx, wl.batch)
			t.addRow(wl.name, b.System,
				fmt.Sprintf("%dK", wl.ctx/n/1000),
				us(b.AttnOp), us(b.AttnLoopIter), us(b.SendRecvIter), us(b.All2AllIter),
				us(b.WholeAttnIter),
				fmt.Sprintf("%.1f", paperWhole[wl.name][n]))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: individual attention ops shrink with CP (shorter effective context) but ring hops and All2All grow the whole pass-Q latency",
		"decode runs under CUDA graphs in the paper; communication is not overlapped, so components add")
	return t, nil
}
