// Package perf is the paper's evaluation on the paper's hardware: the
// analytical package behind the cpcalc command, linked by no serving binary.
//
//   - platform.go: the H100 platforms GTT and GTI and their calibration.
//   - perf.go, plan.go: the calibrated performance model. It extends the
//     roofline analysis of §3.4 (Equations 1-3 and Appendix C) with the terms
//     a real deployment pays: tensor-parallel AllReduces, ring SendRecv
//     pipelining with compute overlap, the pass-Q All2All, weight-read memory
//     floors for small batches, per-kernel and per-hop latencies, and the
//     strong-scaling efficiency loss of sharding GEMMs across more GPUs.
//   - heuristic.go: the pass-KV/pass-Q selectors of §3.4 and Appendices C-D,
//     with the least-squares fitter of the empirical selector.
//   - experiments.go and exp_*.go: every table and figure of §4 and
//     Appendices A and D, printed by cpcalc -exp.
//   - ringsim.go: a discrete-event simulator of one ring pass that
//     cross-checks the model's closed-form overlap.
//
// All latencies are in seconds. The model is deterministic and cheap
// (microseconds per evaluation), so the experiments sweep every
// configuration of §4 and fit the Appendix D selector against it.
//
// Calibration: GPU efficiency factors live in Platform and were fitted
// once against the paper's anchor numbers (CP1 TTFT 42 s at 128K, standalone
// FA3 at 540 TF/s, Table 5 and Table 8 microsecond breakdowns);
// testdata/experiments.golden holds the model-versus-paper columns of every
// reproduced table.
package perf

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Variant, its three values and ChooseVariant (Equation 1) live in
// internal/model beside MissRate and KVRatio. These aliases are kept for
// benchmark/ until harness v2 (ROADMAP item 4) switches it to model.
type Variant = model.Variant

const (
	PassKV = model.PassKV
	PassQ  = model.PassQ
	Auto   = model.Auto
)

// ChooseVariant forwards to model.ChooseVariant.
func ChooseVariant(c model.Config, T, P int) Variant { return model.ChooseVariant(c, T, P) }

// Calibration constants shared by all platforms. These capture effects that
// are properties of the software stack rather than of a specific fabric.
const (
	// MemEff is the achieved fraction of HBM bandwidth on streaming reads.
	MemEff = 0.85
	// TPScalingExp models the strong-scaling efficiency loss of linear
	// layers as the TP group grows beyond one host: achieved GEMM rate
	// scales with (8/NTP)^TPScalingExp (fitted to Table 7's TP16/TP32).
	TPScalingExp = 0.63
	// prefillLayerBase is the fixed per-transformer-layer cost of a prefill
	// forward pass not attributable to GEMM/attention/communication (norms,
	// rotary embedding, KV-cache writes, host launches).
	prefillLayerBase = 2.5e-3 // seconds per layer (~315 ms per 126-layer pass)
)

// System is a deployment configuration: CPNodes CP ranks, each a TPNodes
// host group of Plat.GPUsPerHost GPUs. The paper's CPn+TP8 runs have
// TPNodes = 1; its multi-node TP baselines have CPNodes = 1, TPNodes > 1.
type System struct {
	Model   model.Config
	Plat    Platform
	CPNodes int // N, context-parallel ranks (one host each unless TPNodes>1)
	TPNodes int // hosts inside one tensor-parallel group
}

// Validate checks the configuration.
func (s System) Validate() error {
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if s.CPNodes <= 0 || s.TPNodes <= 0 {
		return fmt.Errorf("perf: non-positive CPNodes=%d or TPNodes=%d", s.CPNodes, s.TPNodes)
	}
	if s.CPNodes > 1 && s.TPNodes > 1 {
		return fmt.Errorf("perf: combined multi-node TP inside CP is not modeled")
	}
	return nil
}

// TPGPUs returns the GPUs inside one tensor-parallel group.
func (s System) TPGPUs() int { return s.Plat.GPUsPerHost * s.TPNodes }

// TotalGPUs returns all GPUs in the system.
func (s System) TotalGPUs() int { return s.CPNodes * s.TPGPUs() }

// Name renders the paper's configuration naming: CP{N}+TP8 or TP{g}.
func (s System) Name() string {
	if s.TPNodes > 1 {
		return fmt.Sprintf("TP%d", s.TPGPUs())
	}
	if s.CPNodes == 1 {
		return "TP8"
	}
	return fmt.Sprintf("CP%d+TP8", s.CPNodes)
}

// ---------------------------------------------------------------------------
// Shared building blocks.
// ---------------------------------------------------------------------------

// WeightBytes returns the deployed parameter footprint: FP8 feed-forward
// weights (the paper's row-wise quantization) plus BF16 attention and
// embedding weights.
func WeightBytes(c model.Config) float64 {
	ffn := 3 * float64(c.ModelDim) * float64(c.FFNDim) * float64(c.Layers) // gate+up+down, fp8
	attn := float64(c.Layers) * (2*float64(c.ModelDim)*float64(c.ModelDim) +
		2*float64(c.ModelDim)*float64(c.NumKV*c.HeadDim)) * 2 // bf16
	embed := 2 * float64(c.VocabSize) * float64(c.ModelDim) * 2 // in+out, bf16
	return ffn + attn + embed
}

// CausalPairs returns the number of (query, key) attention pairs of a
// partial prefill: T new tokens against P cached plus themselves causally.
func CausalPairs(T, P int) float64 {
	t, p := float64(T), float64(P)
	return t*p + t*(t+1)/2
}

// gemmRate returns the achieved linear-layer FLOP rate per GPU, including
// the strong-scaling penalty for TP groups wider than one host.
func (s System) gemmRate() float64 {
	rate := s.Plat.GEMMRate()
	if g := s.TPGPUs(); g > s.Plat.GPUsPerHost {
		rate *= math.Pow(float64(s.Plat.GPUsPerHost)/float64(g), TPScalingExp)
	}
	return rate
}

// linearLayerTime returns the per-layer linear (GEMM) time for `rows` local
// tokens, floored by the weight-read memory bound that dominates small
// batches and decode.
func (s System) linearLayerTime(rows int) float64 {
	perLayerFLOPs := 2 * s.Model.Params / float64(s.Model.Layers) * float64(rows)
	flopsTime := perLayerFLOPs / float64(s.TPGPUs()) / s.gemmRate()
	memFloor := WeightBytes(s.Model) / float64(s.Model.Layers) / float64(s.TPGPUs()) /
		(s.Plat.GPU.HBMBW * MemEff)
	return math.Max(flopsTime, memFloor)
}

// allReduceTime returns the latency of one TP AllReduce over `bytes` of
// activations. Multi-host groups run hierarchically: an intra-host phase on
// the per-host shard, an inter-host phase over the hosts, plus fixed
// latency.
func (s System) allReduceTime(bytes float64) float64 {
	g := float64(s.Plat.GPUsPerHost)
	t := 2 * (g - 1) / g * bytes / float64(s.TPNodes) / s.Plat.IntraBW
	if s.TPNodes > 1 {
		t += 2 * bytes / (float64(s.TPGPUs()) * s.Plat.EffectiveInterBW())
	}
	t += s.Plat.ARLatencyBase + s.Plat.ARLatencyPerHop*float64(s.TPNodes-1)
	return t
}

// ---------------------------------------------------------------------------
// Prefill (TTFT).
// ---------------------------------------------------------------------------

// PrefillBreakdown decomposes a TTFT prediction. All fields are seconds
// except the per-iteration fields, which are per ring iteration per layer
// (the quantities Table 5 reports in microseconds).
type PrefillBreakdown struct {
	System  string
	Variant Variant
	T, P    int

	GEMM        float64 // linear layers, all layers
	Attn        float64 // attention compute, all layers
	AllReduce   float64 // TP activation AllReduces, all layers
	RingExposed float64 // SendRecv time not hidden under attention
	All2All     float64 // pass-Q output restore, all layers
	Base        float64 // fixed per-layer and per-step overheads

	SendRecvIter float64 // one ring SendRecv (per layer, per iteration)
	AttnIter     float64 // one ring-iteration attention compute (per layer)

	Total float64
}

// Prefill predicts TTFT for T new tokens against P cached tokens under the
// given ring variant at batch size 1.
func (s System) Prefill(T, P int, v Variant) PrefillBreakdown {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if v == Auto {
		v = ChooseVariant(s.Model, T, P)
	}
	n := s.CPNodes
	L := float64(s.Model.Layers)
	c := s.Model
	e := c.ElemBytes
	rows := (T + n - 1) / n // local new tokens per CP rank

	b := PrefillBreakdown{System: s.Name(), Variant: v, T: T, P: P}
	b.GEMM = s.linearLayerTime(rows) * L

	// Attention compute: load-balanced causal pairs over ranks, heads over
	// the TP group.
	pairs := CausalPairs(T, P)
	attnLayer := 4 * float64(c.ModelDim) * pairs / float64(n) / float64(s.TPGPUs()) / s.Plat.AttnRate()
	b.Attn = attnLayer * L

	// Two activation AllReduces per layer on the local token shard.
	arBytes := float64(rows) * float64(c.ModelDim) * e
	b.AllReduce = 2 * s.allReduceTime(arBytes) * L

	// Ring communication (none for a single rank).
	if n > 1 {
		attnIter := attnLayer / float64(n)
		b.AttnIter = attnIter
		var commBytes float64
		kvHeadsPerGPU := float64(c.NumKV) / float64(s.Plat.GPUsPerHost)
		switch v {
		case PassKV:
			blockTokens := float64(T+P) / float64(n)
			commBytes = blockTokens * 2 * kvHeadsPerGPU * float64(c.HeadDim) * e
		case PassQ:
			qHeadsPerGPU := float64(c.NumHeads) / float64(s.Plat.GPUsPerHost)
			commBytes = float64(rows) * qHeadsPerGPU * float64(c.HeadDim) * e
		}
		commIter := commBytes/s.Plat.EffectiveInterBW() + s.Plat.HopLatency
		b.SendRecvIter = commIter
		// Pipeline: the first chunk computes unmasked; each later iteration
		// costs max(compute, transfer).
		ringLayer := ClosedForm(n, attnIter, commIter, 0)
		b.RingExposed = (ringLayer - float64(n)*attnIter) * L
		if v == PassQ {
			qHeadsPerGPU := float64(c.NumHeads) / float64(s.Plat.GPUsPerHost)
			a2aBytes := float64(n-1) * float64(rows) * qHeadsPerGPU * (float64(c.HeadDim) + 1) * e
			b.All2All = (s.Plat.All2AllBase + s.Plat.HopLatency +
				a2aBytes/(s.Plat.EffectiveInterBW()*s.Plat.A2ABWBoost)) * L
		}
	}

	b.Base = prefillLayerBase*L + s.Plat.StepOverhead
	b.Total = b.GEMM + b.Attn + b.AllReduce + b.RingExposed + b.All2All + b.Base
	return b
}

// PrefillBest returns the lower-latency variant and both predictions — the
// oracle the heuristics are judged against.
func (s System) PrefillBest(T, P int) (Variant, PrefillBreakdown, PrefillBreakdown) {
	kv := s.Prefill(T, P, PassKV)
	q := s.Prefill(T, P, PassQ)
	if kv.Total <= q.Total {
		return PassKV, kv, q
	}
	return PassQ, kv, q
}

// ---------------------------------------------------------------------------
// Decode (TTIT).
// ---------------------------------------------------------------------------

// DecodeBreakdown decomposes a TTIT prediction. Per-op fields correspond to
// Table 8's rows.
type DecodeBreakdown struct {
	System string
	Ctx    int
	Batch  int

	WeightRead float64 // linear-layer weight streaming, whole model
	ARLatency  float64 // TP AllReduce latencies, whole model
	AttnLoop   float64 // N partial-attention kernels per layer, whole model
	SendRecv   float64 // ring Q hops per layer, whole model
	All2All    float64 // output restore per layer, whole model
	Base       float64 // fixed per-step overhead

	AttnOp        float64 // one partial attention kernel (per layer)
	AttnLoopIter  float64 // whole ring loop attention (per layer)
	SendRecvIter  float64 // ring hops total (per layer)
	All2AllIter   float64 // All2All (per layer)
	WholeAttnIter float64 // total pass-Q attention path (per layer)

	Total float64
}

// Decode predicts TTIT at the given total context length (cached tokens per
// sequence) and batch size.
func (s System) Decode(ctx, batch int) DecodeBreakdown {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	n := s.CPNodes
	L := float64(s.Model.Layers)
	c := s.Model
	e := c.ElemBytes

	b := DecodeBreakdown{System: s.Name(), Ctx: ctx, Batch: batch}
	b.WeightRead = WeightBytes(c) / float64(s.TPGPUs()) / (s.Plat.GPU.HBMBW * MemEff)
	b.ARLatency = 2 * L * (s.Plat.ARLatencyBase + s.Plat.ARLatencyPerHop*float64(s.TPNodes-1))

	kvHeadsPerGPU := float64(c.NumKV) / float64(s.Plat.GPUsPerHost)
	ctxLocal := float64(ctx) / float64(n)
	blockLen := (batch + n - 1) / n // padded queries per rank (§4.3)

	// One partial-attention kernel: the visiting query block reads this
	// rank's KV shard for each query's sequence.
	opBytes := float64(blockLen) * ctxLocal * 2 * kvHeadsPerGPU * float64(c.HeadDim) * e
	b.AttnOp = opBytes/s.Plat.GPU.HBMBW + s.Plat.KernelOverhead
	b.AttnLoopIter = float64(n) * b.AttnOp
	b.AttnLoop = b.AttnLoopIter * L

	if n > 1 {
		qHeadsPerGPU := float64(c.NumHeads) / float64(s.Plat.GPUsPerHost)
		qBytes := float64(blockLen) * qHeadsPerGPU * float64(c.HeadDim) * e
		b.SendRecvIter = float64(n-1) * (s.Plat.HopLatency + qBytes/s.Plat.EffectiveInterBW())
		a2aBytes := float64(n-1) * float64(blockLen) * qHeadsPerGPU * (float64(c.HeadDim) + 1) * e
		b.All2AllIter = s.Plat.All2AllBase + s.Plat.HopLatency +
			a2aBytes/(s.Plat.EffectiveInterBW()*s.Plat.A2ABWBoost)
		b.SendRecv = b.SendRecvIter * L
		b.All2All = b.All2AllIter * L
	}
	b.WholeAttnIter = b.AttnLoopIter + b.SendRecvIter + b.All2AllIter
	b.Base = s.Plat.StepOverhead
	b.Total = b.WeightRead + b.ARLatency + b.AttnLoop + b.SendRecv + b.All2All + b.Base
	return b
}

// ---------------------------------------------------------------------------
// Derived quantities used by the experiment harness.
// ---------------------------------------------------------------------------

// ScalingRatio returns tau_1/tau_N for a full prefill of T tokens: the
// speedup of this system over its single-node counterpart (Figure 7).
func (s System) ScalingRatio(T int, v Variant) float64 {
	single := System{Model: s.Model, Plat: s.Plat, CPNodes: 1, TPNodes: 1}
	return single.Prefill(T, 0, v).Total / s.Prefill(T, 0, v).Total
}

// MFU returns the model FLOPs utilization of a full prefill against the
// per-GPU peak (Appendix A): achieved FLOP/s per GPU divided by peak.
func (s System) MFU(T int, v Variant) (perGPU float64, utilization float64) {
	total := s.Model.TotalPrefillFLOPs(1, T)
	ttft := s.Prefill(T, 0, v).Total
	perGPU = total / ttft / float64(s.TotalGPUs())
	return perGPU, perGPU / s.Plat.GPU.PeakBF16
}

// ParallelEfficiency compares achieved per-GPU attention throughput against
// a single-GPU standalone kernel at the same per-GPU shard size, mirroring
// the paper's 93% figure for 1M over 128 GPUs.
func (s System) ParallelEfficiency(T int, v Variant) float64 {
	perGPU, _ := s.MFU(T, v)
	return perGPU / s.Plat.AttnRate()
}

// KVCapacityTokens returns how many tokens of KV cache the system can hold,
// given the fraction of HBM left after weights (per GPU), aggregated over CP
// ranks — the capacity argument for CP in §4.2.3.
func (s System) KVCapacityTokens() float64 {
	perGPUFree := s.Plat.GPU.HBMBytes - WeightBytes(s.Model)/float64(s.TPGPUs())
	if perGPUFree < 0 {
		return 0
	}
	perTokenPerGPU := s.Model.KVCacheBytesPerToken() / float64(s.Plat.GPUsPerHost)
	return perGPUFree / perTokenPerGPU * float64(s.CPNodes)
}
