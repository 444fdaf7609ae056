package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/transformer"
)

// Env is everything a run holds fixed across workloads: the model, the
// serving configuration, and how long each layer rung may measure. The
// benchmark proper always runs benchEnv; tests substitute a tiny model.
type Env struct {
	Model       transformer.Config
	Ranks       int
	TokenBudget int
	// RungBudget bounds how long one layer rung repeats its call in the
	// traced run (a rung reports the median over its repeats).
	RungBudget time.Duration
}

// benchEnv is the fixed configuration: a 2-layer GQA model with NKV/NH =
// 1/8, so Equation 1's pass-KV/pass-Q threshold sits at a miss rate of
// 2·NKV/NH = 0.25 — the paper's small-KV regime — served by two CP ranks
// with 512-token prefill chunks. Inputs and transport are the only things
// that vary between workloads.
func benchEnv() Env {
	return Env{
		Model: transformer.Config{
			Model: model.Config{
				Name: "bench-gqa8", Layers: 2, ModelDim: 256, FFNDim: 512,
				NumHeads: 8, NumKV: 1, HeadDim: 32, VocabSize: 512,
				ElemBytes: 2, Params: 1.2e6,
			},
			RoPEBase: 10000, NormEps: 1e-5, Seed: 1,
		},
		Ranks:       2,
		TokenBudget: 512,
		RungBudget:  150 * time.Millisecond,
	}
}

// blocks rounds a token count down to whole prefill chunks: the part of a
// prompt the prefix tree can hold.
func (e Env) blocks(tokens int) int { return tokens / e.TokenBudget * e.TokenBudget }

// serverConfig is what cpserve ships apart from the three sized fields:
// prefix cache on at its default budget, recorder on.
func (e Env) serverConfig() server.Config {
	return server.Config{
		Transformer: e.Model,
		Ranks:       e.Ranks,
		Variant:     perf.Auto,
		TokenBudget: e.TokenBudget,
	}
}

// Workload is one closed-loop traffic shape. A round builds a fresh server,
// sends one warm-up request of the same shape (the timed set-up), then the
// measured set: every client sends PerClient requests back to back, each a
// /v1/prefill, a /v1/generate continuation of Out tokens, and a DELETE.
type Workload struct {
	Name string
	Why  string
	// Clients is 1 for a closed loop (README: why not two); a Barrier
	// workload has one session per client.
	Clients int
	// Prompt is the prompt length; its first Shared tokens are one corpus
	// common to every request of the run (0 = every prompt unique).
	Prompt, Shared int
	// Out is the continuation's max_tokens.
	Out int
	// NoCache sends no_cache with every prefill.
	NoCache bool
	// Rounds × Clients × PerClient requests are measured per run.
	Rounds, PerClient int
	// Barrier runs the clients' prefills one at a time and releases their
	// continuations together, so the fused decode batch holds all of them.
	Barrier bool
	// TCP puts the ranks behind loopback sockets (transformer.RunWorker
	// goroutines) instead of the in-process mailbox transport.
	TCP bool
}

// runSeconds is the run length BENCHMARK.json declares: the request counts
// below are fixed work sized so one workload's measured phases last at most
// about this long on the 2-core runner (13-20 s as it drifts).
const runSeconds = 20

func workloads() []Workload {
	return []Workload{
		{
			Name: "prefill_full", Why: "full prefill of a unique 2048-token prompt: four pass-KV chunks, attention and matmul dominate",
			Clients: 1, Prompt: 2048, Out: 32, NoCache: true, Rounds: 4, PerClient: 6,
		},
		{
			Name: "prefill_persistent", Why: "1536-token cached corpus plus a unique 256-token suffix (14% miss rate): prefix-cache lookup, KV adoption and one pass-Q chunk",
			Clients: 1, Prompt: 1792, Shared: 1536, Out: 32, Rounds: 4, PerClient: 20,
		},
		{
			Name: "decode_batch", Why: "8 sessions decoding 512 tokens each in one fused batch: pass-Q decode ring, pool fan-out and per-step allocation",
			Clients: 8, Prompt: 512, Out: 512, Rounds: 5, PerClient: 1, Barrier: true,
		},
		{
			Name: "ring_tcp", Why: "1024-token prefill and 128 decode steps with both ranks behind loopback sockets: wire codec, CRC and control plane on every hop",
			Clients: 1, Prompt: 1024, Out: 128, NoCache: true, Rounds: 4, PerClient: 8, TCP: true,
		},
	}
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// MetricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is rejected;
// per-layer metrics have none.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the six gated metrics, reported on every workload. The
// three timing bounds are wider than issue 13 allows (15 % at most): its
// acceptance criterion on them is NOT met on this runner, whose ten-run
// quartile spread of a timing median is 9-17 % (README, "What the noise
// measurements say"), and a registered bound below the spread is refused.
func endToEnd() []MetricDef {
	return []MetricDef{
		{"setup_s", "s", "lower", 0.25},
		{"ttft_ms_p50", "ms", "lower", 0.25},
		{"tpot_ms_p50", "ms", "lower", 0.25},
		{"tok_per_s", "1/s", "higher", 0.25},
		{"alloc_kb_per_tok", "KiB", "lower", 0.05},
		{"allocs_per_tok", "count", "lower", 0.02},
	}
}

// perLayer lists the traced run's metrics, `layer.metric` with the module
// name as the layer. The README maps each to the end-to-end metric and
// workload it should move.
func perLayer() []MetricDef {
	return []MetricDef{
		{"server.self_ms_per_req", "ms", "lower", 0},
		{"server.step_overhead_us", "us", "lower", 0},
		{"server.batch_occupancy_mean", "count", "higher", 0},
		{"server.queue_wait_ms_mean", "ms", "lower", 0},
		{"server.prefill_chunks", "count", "lower", 0},
		{"server.iters", "count", "lower", 0},
		{"server.ttft_ms_p90", "ms", "lower", 0},
		{"server.itl_ms_p99", "ms", "lower", 0},
		{"prefixcache.hit_token_share", "share", "higher", 0},
		{"prefixcache.lookup_us", "us", "lower", 0},
		{"prefixcache.insert_us", "us", "lower", 0},
		{"prefixcache.evicted_tokens", "count", "lower", 0},
		{"kvcache.append_us_per_tok", "us", "lower", 0},
		{"kvcache.copyrange_us_per_ktok", "us", "lower", 0},
		{"kvcache.adopt_us", "us", "lower", 0},
		{"kvcache.assembly_rows_per_tok", "count", "lower", 0},
		{"transformer.prefill_ms", "ms", "lower", 0},
		{"transformer.decode_step_ms", "ms", "lower", 0},
		{"transformer.adopt_ms", "ms", "lower", 0},
		{"transformer.nonattn_share", "share", "lower", 0},
		{"ring.passkv_ms", "ms", "lower", 0},
		{"ring.passq_ms", "ms", "lower", 0},
		{"ring.decode_ms", "ms", "lower", 0},
		{"ring.exposed_comm_share", "share", "lower", 0},
		{"ring.overlap_hidden_share", "share", "higher", 0},
		{"ring.passkv_chunks", "count", "lower", 0},
		{"ring.passq_chunks", "count", "lower", 0},
		{"ring.sweeps", "count", "lower", 0},
		{"attention.gqa_prefill_ms", "ms", "lower", 0},
		{"attention.gqa_decode_us", "us", "lower", 0},
		{"attention.merge_us", "us", "lower", 0},
		{"attention.gflops", "GFLOP/s", "higher", 0},
		{"tensor.matmul_prefill_ms", "ms", "lower", 0},
		{"tensor.matmul_decode_us", "us", "lower", 0},
		{"simd.dot_ns", "ns", "lower", 0},
		{"simd.dot_gflops", "GFLOP/s", "higher", 0},
		{"parallel.for_overhead_us", "us", "lower", 0},
		{"parallel.jobs_per_tok", "count", "lower", 0},
		{"parallel.stolen_share", "share", "higher", 0},
		{"comm.sendrecv_us", "us", "lower", 0},
		{"comm.bytes_per_tok", "B", "lower", 0},
		{"comm.msgs_per_tok", "count", "lower", 0},
		{"wire.encode_us_per_mb", "us", "lower", 0},
		{"wire.decode_us_per_mb", "us", "lower", 0},
		{"wire.bytes_per_tok", "B", "lower", 0},
		{"wire.frames_per_tok", "count", "lower", 0},
		{"transport.tcp_rtt_us", "us", "lower", 0},
		{"transport.tcp_mb_per_s", "MB/s", "higher", 0},
		{"sharding.plan_us", "us", "lower", 0},
		{"bench.trace_overhead_share", "share", "lower", 0},
	}
}

// checkRegistration compares BENCHMARK.json with the declarations above, so
// the two cannot drift apart unnoticed: every run made from a checkout (the
// file is in the working directory, or one above under `go run -C benchmark`)
// refuses to start on a difference. Without the file there is nothing to check.
func checkRegistration() error {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := matchesDeclarations(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return nil
	}
	return nil
}

func matchesDeclarations(data []byte) error {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var reg struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		return err
	}
	if reg.RunSeconds != runSeconds {
		return fmt.Errorf("run_seconds %d, the fixed work is sized for %d", reg.RunSeconds, runSeconds)
	}
	if !slices.Equal(reg.Paths, []string{"benchmark"}) {
		return fmt.Errorf("paths = %v", reg.Paths)
	}
	ws := workloads()
	if len(reg.Workloads) != len(ws) {
		return fmt.Errorf("%d workloads registered, %d declared", len(reg.Workloads), len(ws))
	}
	for i, w := range ws {
		if reg.Workloads[i].Name != w.Name || reg.Workloads[i].Why != w.Why {
			return fmt.Errorf("workload %d is registered as %+v, declared as %q / %q", i, reg.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []metric, want []MetricDef, bounded bool) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d metrics registered, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				return fmt.Errorf("%s metric %d is registered as %s [%s, %s], declared as %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				return fmt.Errorf("%s metric %s: registered bound differs from the declared %v", kind, d.Name, d.Bound)
			}
		}
		return nil
	}
	if err := same("end_to_end", reg.EndToEnd, endToEnd(), true); err != nil {
		return err
	}
	return same("per_layer", reg.PerLayer, perLayer(), false)
}
