package perf

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Plan is a deployment recommendation: the smallest CP group that meets the
// latency and capacity constraints. It operationalizes the paper's framing
// of CP as "the flexibility to trade off model inference latency with
// hardware capacity depending on the latency requirements of specific
// applications" (§2.3).
type Plan struct {
	System        System
	TTFT          float64 // predicted at the planning context
	TTIT          float64
	CapacityOK    bool
	MeetsTTFT     bool
	MeetsTTIT     bool
	KVCapacity    float64
	ContextLength int
}

// PlanRequest states the serving constraints.
type PlanRequest struct {
	Model       model.Config
	Plat        Platform
	Context     int     // total context length to serve (tokens)
	TTFTTarget  float64 // seconds; 0 = unconstrained
	TTITTarget  float64 // seconds; 0 = unconstrained
	MaxCPNodes  int     // search bound; 0 = 64
	DecodeBatch int     // batch for the TTIT prediction; 0 = 1
}

// PlanDeployment returns the smallest CP group (TP8 per node) that fits the
// context in KV capacity and meets the TTFT target, reporting whether the
// TTIT target also holds (the paper: CP improves prefill at a decode
// penalty, so a disaggregated deployment may still be needed — §4.3).
func PlanDeployment(req PlanRequest) (Plan, error) {
	if req.Context <= 0 {
		return Plan{}, fmt.Errorf("perf: non-positive context %d", req.Context)
	}
	maxN := req.MaxCPNodes
	if maxN == 0 {
		maxN = 64
	}
	batch := req.DecodeBatch
	if batch == 0 {
		batch = 1
	}
	var fallback *Plan
	for n := 1; n <= maxN; n *= 2 {
		s := System{Model: req.Model, Plat: req.Plat, CPNodes: n, TPNodes: 1}
		p := Plan{
			System:        s,
			TTFT:          s.Prefill(req.Context, 0, PassKV).Total,
			TTIT:          s.Decode(req.Context, batch).Total,
			KVCapacity:    s.KVCapacityTokens(),
			ContextLength: req.Context,
		}
		p.CapacityOK = p.KVCapacity >= float64(req.Context)*float64(batch)
		p.MeetsTTFT = req.TTFTTarget == 0 || p.TTFT <= req.TTFTTarget
		p.MeetsTTIT = req.TTITTarget == 0 || p.TTIT <= req.TTITTarget
		if p.CapacityOK {
			if fallback == nil {
				cp := p
				fallback = &cp
			}
			if p.MeetsTTFT {
				return p, nil
			}
		}
	}
	if fallback != nil {
		// Capacity fits somewhere but the TTFT target is unreachable within
		// the bound; return the largest searched group with diagnostics.
		n := maxN
		s := System{Model: req.Model, Plat: req.Plat, CPNodes: n, TPNodes: 1}
		p := Plan{
			System:        s,
			TTFT:          s.Prefill(req.Context, 0, PassKV).Total,
			TTIT:          s.Decode(req.Context, batch).Total,
			KVCapacity:    s.KVCapacityTokens(),
			ContextLength: req.Context,
		}
		p.CapacityOK = p.KVCapacity >= float64(req.Context)*float64(batch)
		p.MeetsTTFT = req.TTFTTarget == 0 || p.TTFT <= req.TTFTTarget
		p.MeetsTTIT = req.TTITTarget == 0 || p.TTIT <= req.TTITTarget
		return p, fmt.Errorf("perf: TTFT target %.2fs unreachable within %d nodes (best %.2fs)",
			req.TTFTTarget, maxN, p.TTFT)
	}
	return Plan{}, fmt.Errorf("perf: context %d does not fit in KV capacity within %d nodes", req.Context, maxN)
}

// SpeedOfLight returns the lower-bound TTFT at a node count: pure compute
// at achieved rates with zero communication and overhead, used to report
// how close a plan sits to its compute bound.
func (s System) SpeedOfLight(T int) float64 {
	c := s.Model
	gemm := 2 * c.Params * float64(T) / float64(s.TotalGPUs()) / s.gemmRate()
	attn := 4 * float64(c.ModelDim) * CausalPairs(T, 0) * float64(c.Layers) /
		float64(s.TotalGPUs()) / s.Plat.AttnRate()
	// CausalPairs already covers one layer's pairs; attention FLOPs repeat
	// per layer while GEMM FLOPs (2WT) already span the whole model.
	return gemm + attn
}

// Efficiency returns predicted TTFT over the speed-of-light bound (>= 1).
func (s System) Efficiency(T int) float64 {
	sol := s.SpeedOfLight(T)
	if sol == 0 {
		return math.Inf(1)
	}
	return s.Prefill(T, 0, PassKV).Total / sol
}
