package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/simd"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// The forward-pass section measures the non-attention half of the serving
// hot path — the projection, FFN, and output-head GEMMs that PR 6 routed
// through the shared SIMD dot and the row-blocked parallel matmul — plus
// the end-to-end single-rank prefill that exercises all of them together.
// Every stage is measured against a scalar/serial baseline (vector paths
// off, one worker: the seed engine's execution regime) so the recorded
// speedups state exactly what the parallel+SIMD path buys on this machine.

// forwardPoint is one worker-count measurement of a forward-pass stage.
type forwardPoint struct {
	Workers         int     `json:"workers"`
	TokPerSec       float64 `json:"tok_per_sec"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar_serial,omitempty"`
}

// forwardStageReport is one stage's trajectory: the scalar/serial baseline
// and the SIMD-enabled throughput across worker counts.
type forwardStageReport struct {
	Name            string         `json:"name"`
	ScalarSerialTok float64        `json:"scalar_serial_tok_per_sec"`
	Throughput      []forwardPoint `json:"throughput"`
}

// kernelForwardReport is the forward-pass section of BENCH_kernel.json.
type kernelForwardReport struct {
	sectionEnv
	SIMD     string               `json:"simd"` // "avx2+fma" when the vector dot is live, else "scalar"
	Layers   int                  `json:"layers"`
	ModelDim int                  `json:"model_dim"`
	FFNDim   int                  `json:"ffn_dim"`
	NumHeads int                  `json:"num_heads"`
	NumKV    int                  `json:"num_kv_heads"`
	HeadDim  int                  `json:"head_dim"`
	Vocab    int                  `json:"vocab"`
	Tokens   int                  `json:"tokens"` // prefill chunk length per measurement
	Reps     int                  `json:"reps"`
	Stages   []forwardStageReport `json:"stages"`
}

// benchMid returns the forward-bench model shape: big enough that the
// per-token GEMMs dominate (D=256, FFN=512) and the SIMD dot runs long
// vectors, small enough to bench in seconds.
func benchMid(seed int64) transformer.Config {
	m := model.Config{
		Name:      "bench-mid",
		Layers:    2,
		ModelDim:  256,
		FFNDim:    512,
		NumHeads:  8,
		NumKV:     4,
		HeadDim:   32,
		Params:    1e6,
		ElemBytes: 2,
		VocabSize: 512,
	}
	return transformer.Config{Model: m, RoPEBase: 10000, NormEps: 1e-5, Seed: seed}
}

// runForwardBench measures the forward-pass stages and fills the section.
func runForwardBench(workerCounts []int) (kernelForwardReport, error) {
	const (
		tokens = 128
		reps   = 3
	)
	cfg := benchMid(29)
	m := cfg.Model
	report := kernelForwardReport{
		sectionEnv: captureEnv(),
		Layers:     m.Layers, ModelDim: m.ModelDim, FFNDim: m.FFNDim,
		NumHeads: m.NumHeads, NumKV: m.NumKV, HeadDim: m.HeadDim,
		Vocab: m.VocabSize, Tokens: tokens, Reps: reps,
	}
	if simd.Available() {
		report.SIMD = "avx2+fma"
	} else {
		report.SIMD = "scalar"
	}

	rng := rand.New(rand.NewSource(31))
	wq := tensor.RandMatrix(rng, m.NumHeads*m.HeadDim, m.ModelDim)
	wk := tensor.RandMatrix(rng, m.NumKV*m.HeadDim, m.ModelDim)
	wv := tensor.RandMatrix(rng, m.NumKV*m.HeadDim, m.ModelDim)
	wGate := tensor.RandMatrix(rng, m.FFNDim, m.ModelDim)
	wUp := tensor.RandMatrix(rng, m.FFNDim, m.ModelDim)
	wDown := tensor.RandMatrix(rng, m.ModelDim, m.FFNDim)
	head := tensor.RandMatrix(rng, m.VocabSize, m.ModelDim)
	hidden := make([]float32, tokens*m.ModelDim)
	ffnAct := make([]float32, tokens*m.FFNDim)
	for i := range hidden {
		hidden[i] = float32(rng.NormFloat64())
	}
	for i := range ffnAct {
		ffnAct[i] = float32(rng.NormFloat64())
	}
	qOut := make([]float32, tokens*m.NumHeads*m.HeadDim)
	kvOut := make([]float32, tokens*m.NumKV*m.HeadDim)
	ffnOut := make([]float32, tokens*m.FFNDim)
	downOut := make([]float32, tokens*m.ModelDim)
	logitsOut := make([]float32, tokens*m.VocabSize)

	// Each stage is the exact GEMM shapes one layer (or the head) runs over a
	// token block, through the same ApplyRowsInto hot path the engine uses.
	stages := []struct {
		name string
		fn   func() error
	}{
		{"projections", func() error {
			wq.ApplyRowsInto(qOut, hidden, tokens)
			wk.ApplyRowsInto(kvOut, hidden, tokens)
			wv.ApplyRowsInto(kvOut, hidden, tokens)
			return nil
		}},
		{"ffn", func() error {
			wGate.ApplyRowsInto(ffnOut, hidden, tokens)
			wUp.ApplyRowsInto(ffnOut, hidden, tokens)
			wDown.ApplyRowsInto(downOut, ffnAct, tokens)
			return nil
		}},
		{"logits", func() error {
			head.ApplyRowsInto(logitsOut, hidden, tokens)
			return nil
		}},
		{"end_to_end", nil}, // measured through the cluster below
	}

	timeStage := func(fn func() error) (float64, error) {
		if err := fn(); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return float64(tokens) * reps / time.Since(start).Seconds(), nil
	}

	// End-to-end: cold single-rank prefill of a `tokens`-long prompt through
	// the full cluster (projections, ring attention, FFN, logits). A fresh
	// session per run keeps every measurement a cold prefill.
	weights, err := transformer.NewWeights(cfg)
	if err != nil {
		return report, err
	}
	prompt := make([]int, tokens)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % m.VocabSize
	}
	nextSession := 0
	e2e := func() error {
		c, err := transformer.NewCluster(weights, 1)
		if err != nil {
			return err
		}
		if _, err := c.Prefill(nextSession, prompt, perf.PassKV); err != nil {
			return err
		}
		nextSession++
		return nil
	}

	for _, st := range stages {
		fn := st.fn
		if fn == nil {
			fn = e2e
		}
		sr := forwardStageReport{Name: st.name}
		// Scalar/serial baseline: vector dot off, pool width 1 — the seed
		// engine's execution regime for these GEMMs.
		prevSIMD := simd.SetEnabled(false)
		prevW := parallel.SetWorkers(1)
		sr.ScalarSerialTok, err = timeStage(fn)
		simd.SetEnabled(prevSIMD)
		parallel.SetWorkers(prevW)
		if err != nil {
			return report, err
		}
		for _, w := range workerCounts {
			old := parallel.SetWorkers(w)
			tok, err := timeStage(fn)
			parallel.SetWorkers(old)
			if err != nil {
				return report, err
			}
			sr.Throughput = append(sr.Throughput, forwardPoint{
				Workers: w, TokPerSec: tok, SpeedupVsScalar: tok / sr.ScalarSerialTok,
			})
		}
		report.Stages = append(report.Stages, sr)
	}
	return report, nil
}

// validForward rejects a section with NaN or non-positive throughput — the
// CI bench smoke gate.
func validForward(r kernelForwardReport) error {
	check := func(stage string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("forward bench: stage %s throughput %v", stage, v)
		}
		return nil
	}
	if len(r.Stages) == 0 {
		return fmt.Errorf("forward bench: no stages recorded")
	}
	for _, st := range r.Stages {
		if err := check(st.Name+"/scalar_serial", st.ScalarSerialTok); err != nil {
			return err
		}
		if len(st.Throughput) == 0 {
			return fmt.Errorf("forward bench: stage %s has no worker points", st.Name)
		}
		for _, p := range st.Throughput {
			if err := check(fmt.Sprintf("%s/w%d", st.Name, p.Workers), p.TokPerSec); err != nil {
				return err
			}
		}
	}
	return nil
}

// runForwardJSON runs only the forward-pass section and writes it to path —
// the fast bench-smoke entry point.
func runForwardJSON(path string) error {
	report, err := runForwardBench([]int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	if err := validForward(report); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	e2e := report.Stages[len(report.Stages)-1]
	last := e2e.Throughput[len(e2e.Throughput)-1]
	fmt.Printf("forward bench (%s): e2e scalar/serial %.0f tok/s; parallel+simd %.0f tok/s at %d workers (%.1fx)\n",
		report.SIMD, e2e.ScalarSerialTok, last.TokPerSec, last.Workers, last.SpeedupVsScalar)
	fmt.Printf("wrote %s\n", path)
	return nil
}
