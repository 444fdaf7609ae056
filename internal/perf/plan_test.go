package perf

import (
	"testing"

	"repro/internal/model"
)

func TestPlanMeetsTTFT(t *testing.T) {
	// Serve 128K with a 6-second TTFT target: needs CP8 on GTT (42s / 21s /
	// 11s / 5.6s for 1/2/4/8 nodes).
	p, err := PlanDeployment(PlanRequest{
		Model: model.Llama3405B(), Plat: GTT(),
		Context: 128000, TTFTTarget: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.System.CPNodes != 8 {
		t.Fatalf("plan chose CP%d, want CP8 (TTFT %v)", p.System.CPNodes, p.TTFT)
	}
	if !p.MeetsTTFT || !p.CapacityOK {
		t.Fatalf("plan flags wrong: %+v", p)
	}
}

func TestPlanCapacityForcesScaleOut(t *testing.T) {
	// 1M tokens do not fit one node's KV (§4.2.3); even with no latency
	// target the plan must scale out.
	p, err := PlanDeployment(PlanRequest{
		Model: model.Llama3405B(), Plat: GTT(), Context: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.System.CPNodes < 2 {
		t.Fatalf("1M context planned on CP%d, needs >= 2 nodes for capacity", p.System.CPNodes)
	}
	if !p.CapacityOK {
		t.Fatal("returned plan lacks capacity")
	}
}

func TestPlanUnreachableTarget(t *testing.T) {
	_, err := PlanDeployment(PlanRequest{
		Model: model.Llama3405B(), Plat: GTT(),
		Context: 1_000_000, TTFTTarget: 1, MaxCPNodes: 16,
	})
	if err == nil {
		t.Fatal("1-second 1M prefill reported achievable")
	}
}

func TestPlanInvalidContext(t *testing.T) {
	if _, err := PlanDeployment(PlanRequest{Model: model.Llama3405B(), Plat: GTT()}); err == nil {
		t.Fatal("zero context accepted")
	}
}

func TestPlanTTITDiagnostic(t *testing.T) {
	// The paper's §4.3 point: scaling CP for prefill hurts decode. A strict
	// TTIT target should be reported unmet on a large CP group.
	p, err := PlanDeployment(PlanRequest{
		Model: model.Llama3405B(), Plat: GTT(),
		Context: 128000, TTFTTarget: 6, TTITTarget: 0.050,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.MeetsTTIT {
		t.Fatalf("CP%d TTIT %.1fms reported within 50ms", p.System.CPNodes, p.TTIT*1000)
	}
}

func TestSpeedOfLightBelowPrediction(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		s := gtt(n, 1)
		sol := s.SpeedOfLight(128000)
		pred := s.Prefill(128000, 0, PassKV).Total
		if sol <= 0 || sol >= pred {
			t.Fatalf("CP%d: speed of light %v not below prediction %v", n, sol, pred)
		}
		if eff := s.Efficiency(128000); eff < 1 || eff > 2 {
			t.Fatalf("CP%d: efficiency %v outside [1,2]", n, eff)
		}
	}
}
