package perf

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/transformer"
)

func init() {
	register("commbytes", "Functional cluster: counted ring/All2All bytes per variant and hit rate", commBytes)
	register("e2e", "End-to-end transformer: distributed greedy generation vs single-device reference", endToEnd)
}

// endToEnd runs the full Llama-architecture transformer distributed over CP
// ranks and checks that greedy generation is token-identical to the
// reference — the whole-system losslessness demonstration.
func endToEnd() (*table, error) {
	t := &table{
		ID:     "e2e",
		Title:  title("e2e"),
		Header: []string{"ranks", "variant", "steps", "tokens match", "ring bytes", "per-rank KV"},
	}
	w, err := transformer.NewWeights(transformer.Tiny(31))
	if err != nil {
		return nil, err
	}
	prompt := []int{9, 41, 6, 27, 15, 3}
	const steps = 6
	ref, err := w.GenerateReference(prompt, steps)
	if err != nil {
		return nil, err
	}
	for _, ranks := range []int{1, 2, 4} {
		for _, v := range []Variant{PassKV, PassQ} {
			c, err := transformer.NewCluster(w, ranks)
			if err != nil {
				return nil, err
			}
			got, err := c.Generate(0, prompt, steps, v)
			var tel transformer.Telemetry
			if err == nil {
				tel, err = c.Telemetry()
			}
			c.Close()
			if err != nil {
				return nil, err
			}
			match := "yes"
			for i := range ref {
				if got[i] != ref[i] {
					match = fmt.Sprintf("DIVERGED@%d", i)
					break
				}
			}
			t.addRow(fmt.Sprintf("%d", ranks), v.String(), fmt.Sprintf("%d", steps), match,
				fmt.Sprintf("%.0f", tel.Comm.TotalBytes()),
				fmt.Sprintf("%v", tel.RankKV))
		}
	}
	t.Notes = append(t.Notes,
		"greedy token streams from the distributed transformer (ring attention on every layer, RoPE at global positions) are identical to the single-device reference")
	return t, nil
}

// commBytes counts what one prefill moves on a 2-rank transformer cluster
// with model.Tiny's head shapes (NH = 4·NKV, so Equation 1 separates the
// variants): a 32-token full prefill, and a 2-token follow-up to a 32-token
// pass-KV prefill. Each cell is a telemetry delta across the measured
// prefill on a fresh cluster.
func commBytes() (*table, error) {
	t := &table{
		ID:     "commbytes",
		Title:  title("commbytes"),
		Header: []string{"scenario", "variant", "ring bytes", "all2all bytes", "cheaper"},
	}
	w, err := transformer.NewWeights(transformer.Config{Model: model.Tiny(), RoPEBase: 10000, NormEps: 1e-5, Seed: 5})
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		name      string
		cached, n int
	}{
		{"full prefill (miss 100%)", 0, 32},
		{"follow-up (miss ~6%)", 32, 2},
	}
	for _, sc := range scenarios {
		var ringB, a2aB [2]float64
		for vi, v := range []Variant{PassKV, PassQ} {
			if ringB[vi], a2aB[vi], err = prefillBytes(w, sc.cached, sc.n, v); err != nil {
				return nil, err
			}
		}
		for vi, v := range []Variant{PassKV, PassQ} {
			cheaper := ""
			if ringB[vi] <= ringB[1-vi] {
				cheaper = "<- (ring)"
			}
			t.addRow(sc.name, v.String(),
				fmt.Sprintf("%.0f", ringB[vi]), fmt.Sprintf("%.0f", a2aB[vi]), cheaper)
		}
	}
	t.Notes = append(t.Notes,
		"bytes counted on the simulated transport; note full prefill favors pass-KV while high-hit-rate follow-ups favor pass-Q ring traffic (Equation 1)")
	return t, nil
}

// prefillBytes returns the sendrecv and all2all bytes of one n-token prefill
// under v on a fresh 2-rank cluster whose sequence already holds cached
// tokens prefilled with pass-KV.
func prefillBytes(w *transformer.Weights, cached, n int, v Variant) (ring, a2a float64, err error) {
	c, err := transformer.NewCluster(w, 2)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	toks := make([]int, cached+n)
	for i := range toks {
		toks[i] = (7*i + 3) % w.Cfg.Model.VocabSize
	}
	if cached > 0 {
		if _, err := c.Prefill(0, toks[:cached], PassKV); err != nil {
			return 0, 0, err
		}
	}
	before, err := c.Telemetry()
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.Prefill(0, toks[cached:], v); err != nil {
		return 0, 0, err
	}
	after, err := c.Telemetry()
	if err != nil {
		return 0, 0, err
	}
	return after.Comm.Bytes[comm.KindSendRecv] - before.Comm.Bytes[comm.KindSendRecv],
		after.Comm.Bytes[comm.KindAll2All] - before.Comm.Bytes[comm.KindAll2All], nil
}
