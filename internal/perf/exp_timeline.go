package perf

import (
	"fmt"
	"math"
	"strings"
)

func init() {
	register("timeline", "Discrete-event schedule of one ring-attention layer (Table 5 scenarios)", timeline)
	register("ablation-jitter", "Slow-link tolerance of ring overlap: GTT vs GTI, event-driven", ablationJitter)
	register("xcheck-overlap", "Cross-validation: event-driven makespan vs closed-form overlap model", xcheckOverlap)
}

// specFrom builds a uniform ring-simulator spec from the perf model's
// per-iteration quantities for one layer.
func specFrom(sys System, T, P int, v Variant) RingSpec {
	b := sys.Prefill(T, P, v)
	a2a := 0.0
	if v == PassQ {
		a2a = b.All2All / float64(sys.Model.Layers)
	}
	return Uniform(sys.CPNodes, b.AttnIter, b.SendRecvIter, a2a)
}

func timeline() (*table, error) {
	t := &table{
		ID:     "timeline",
		Title:  title("timeline"),
		Header: []string{"scenario", "variant", "makespan (us)", "exposed comm (us)", "gantt (# compute, - xfer, = all2all)"},
	}
	s := gtt(4, 1)
	for _, sc := range []struct {
		name string
		T, P int
	}{
		{"2.5% miss", 3200, 124800},
		{"10% miss", 12800, 115200},
	} {
		for _, v := range []Variant{PassKV, PassQ} {
			spec := specFrom(s, sc.T, sc.P, v)
			res, err := SimulateRing(spec)
			if err != nil {
				return nil, err
			}
			lines := strings.Split(strings.TrimSuffix(res.Gantt(res.Makespan/48), "\n"), "\n")
			t.addRow(sc.name, v.String(), us(res.Makespan), us(res.ExposedComm[0]), lines[0])
			for _, line := range lines[1:] {
				t.addRow("", "", "", "", line)
			}
		}
	}
	t.Notes = append(t.Notes,
		"at 2.5% miss pass-KV's transfers outlast compute (exposed); at 10% they hide — the Table 5 selection logic as a schedule")
	return t, nil
}

func ablationJitter() (*table, error) {
	t := &table{
		ID:     "ablation-jitter",
		Title:  title("ablation-jitter"),
		Header: []string{"platform", "link slowdown", "makespan (ms)", "vs clean", "absorbed"},
	}
	const T = 128000
	for _, plat := range []struct {
		name string
		sys  System
	}{
		{"gtt", gtt(4, 1)},
		{"gti", gti(4)},
	} {
		clean := specFrom(plat.sys, T, 0, PassKV)
		base, err := SimulateRing(clean)
		if err != nil {
			return nil, err
		}
		for _, slow := range []float64{1, 2, 4, 8} {
			spec := specFrom(plat.sys, T, 0, PassKV)
			spec.ScaleLinkXfer(1, slow)
			res, err := SimulateRing(spec)
			if err != nil {
				return nil, err
			}
			ratio := res.Makespan / base.Makespan
			absorbed := "yes"
			if ratio > 1.001 {
				absorbed = "no"
			}
			t.addRow(plat.name, fmt.Sprintf("%.0fx", slow), ms(res.Makespan*float64(plat.sys.Model.Layers)),
				fmt.Sprintf("%.3f", ratio), absorbed)
		}
	}
	t.Notes = append(t.Notes,
		"RDMA headroom absorbs multi-x link slowdowns under attention compute; the TCP fabric, already near the overlap boundary, exposes them sooner — the quantitative form of §4.2.1's robustness claim")
	return t, nil
}

func xcheckOverlap() (*table, error) {
	t := &table{
		ID:     "xcheck-overlap",
		Title:  title("xcheck-overlap"),
		Header: []string{"N", "regime", "closed form (us)", "event-driven (us)", "rel diff"},
	}
	cases := []struct {
		n                  int
		name               string
		compute, xfer, a2a float64
	}{
		{2, "compute-bound", 1000e-6, 300e-6, 0},
		{4, "compute-bound", 1000e-6, 300e-6, 0},
		{4, "comm-bound", 300e-6, 1000e-6, 0},
		{8, "balanced", 500e-6, 500e-6, 0},
		{4, "pass-Q tail", 800e-6, 200e-6, 400e-6},
	}
	worst := 0.0
	for _, c := range cases {
		res, err := SimulateRing(Uniform(c.n, c.compute, c.xfer, c.a2a))
		if err != nil {
			return nil, err
		}
		cf := ClosedForm(c.n, c.compute, c.xfer, c.a2a)
		rel := math.Abs(res.Makespan-cf) / cf
		if rel > worst {
			worst = rel
		}
		t.addRow(fmt.Sprintf("%d", c.n), c.name, us(cf), us(res.Makespan), fmt.Sprintf("%.2g", rel))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("worst relative difference %.2g: the perf model's overlap expression is the exact fixed point of the event-driven schedule on uniform rings", worst))
	return t, nil
}
