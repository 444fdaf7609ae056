package perf

import "testing"

func TestPlatformsRegistry(t *testing.T) {
	ps := Platforms()
	for _, name := range []string{"gtt", "gti", "gb200-like"} {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("platform %q missing", name)
		}
		if p.Name != name {
			t.Fatalf("platform %q has name %q", name, p.Name)
		}
	}
}

func TestGTTSpecsMatchPaper(t *testing.T) {
	p := GTT()
	// §4.1: 8 H100s per host, RDMA 400 Gb/s per GPU.
	if p.GPUsPerHost != 8 {
		t.Fatalf("GPUsPerHost = %d", p.GPUsPerHost)
	}
	if p.InterBW != 50e9 {
		t.Fatalf("InterBW = %v, want 50e9 (400 Gb/s)", p.InterBW)
	}
	// Appendix A: power-limited H100, BF16 peak 800 TF/s, 96 GB HBM2e at
	// 2.4 TB/s.
	if p.GPU.PeakBF16 != 800e12 || p.GPU.HBMBytes != 96e9 || p.GPU.HBMBW != 2.4e12 {
		t.Fatalf("GPU spec deviates from Appendix A: %+v", p.GPU)
	}
}

func TestGTISpecsMatchPaper(t *testing.T) {
	p := GTI()
	// §4.1: frontend TCP at 100 Gb/s per GPU; §4.2.1: ~3 GB/s achieved.
	if p.InterBW != 12.5e9 {
		t.Fatalf("InterBW = %v, want 12.5e9 (100 Gb/s)", p.InterBW)
	}
	achieved := p.EffectiveInterBW()
	if achieved < 2.5e9 || achieved > 3.5e9 {
		t.Fatalf("achieved BW = %v, want ~3 GB/s per the paper's traces", achieved)
	}
}

func TestEffectiveRates(t *testing.T) {
	p := GTT()
	if p.GEMMRate() != p.GPU.PeakFP8*p.GEMMEff {
		t.Fatal("GEMMRate inconsistent")
	}
	if p.AttnRate() != p.GPU.PeakBF16*p.AttnEff {
		t.Fatal("AttnRate inconsistent")
	}
	// The paper's standalone FA3 measurement: 540 TF/s on this GPU.
	if r := p.AttnRate(); r < 530e12 || r > 550e12 {
		t.Fatalf("AttnRate = %v, want ~540e12 (Appendix A)", r)
	}
}

func TestGB200LikeFasterFabric(t *testing.T) {
	gb := GB200Like()
	if gb.EffectiveInterBW() <= GTT().EffectiveInterBW() {
		t.Fatal("GB200-like fabric should beat RDMA")
	}
	if gb.HopLatency >= GTT().HopLatency {
		t.Fatal("GB200-like latency should beat RDMA")
	}
}
