// The hardware platforms of the paper's evaluation (§4.1): Grand Teton
// hosts of 8 NVLink-connected, power-limited H100s on two fabrics, and the
// efficiency factors calibrated once as the package comment describes.

package perf

// GPU describes one accelerator.
type GPU struct {
	Name     string
	PeakBF16 float64 // FLOP/s, dense
	PeakFP8  float64 // FLOP/s, dense
	HBMBytes float64 // bytes of device memory
	HBMBW    float64 // bytes/s of device memory bandwidth
}

// Platform describes a cluster configuration: hosts of GPUsPerHost
// accelerators, NVLink within a host, a network across hosts.
type Platform struct {
	Name        string
	GPU         GPU
	GPUsPerHost int
	IntraBW     float64 // bytes/s per GPU over NVLink within a host
	InterBW     float64 // bytes/s per GPU across hosts (link peak)
	NetEff      float64 // achieved fraction of InterBW for large transfers
	HopLatency  float64 // seconds of fixed latency per cross-host message

	// Calibrated efficiency factors (fractions of the corresponding peak).
	GEMMEff float64 // achieved fraction of PeakFP8 on linear layers
	AttnEff float64 // achieved fraction of PeakBF16 on attention kernels

	// Fixed decode-path overheads, calibrated against Table 8.
	KernelOverhead  float64 // seconds per attention kernel launch (decode)
	All2AllBase     float64 // seconds of fixed latency per All2All (decode)
	A2ABWBoost      float64 // All2All link utilization gain over single-peer SendRecv
	ARLatencyBase   float64 // seconds base latency per AllReduce
	ARLatencyPerHop float64 // seconds added per extra node in the AR group
	StepOverhead    float64 // seconds of fixed per-forward-pass overhead
}

// EffectiveInterBW returns the achieved per-GPU cross-host bandwidth.
func (p Platform) EffectiveInterBW() float64 { return p.InterBW * p.NetEff }

// GEMMRate returns the achieved FLOP/s per GPU on linear layers.
func (p Platform) GEMMRate() float64 { return p.GPU.PeakFP8 * p.GEMMEff }

// AttnRate returns the achieved FLOP/s per GPU on attention kernels.
func (p Platform) AttnRate() float64 { return p.GPU.PeakBF16 * p.AttnEff }

// h100PowerLimited is the 500 W, HBM2e-equipped H100 of the Grand Teton
// platforms (Appendix A).
func h100PowerLimited() GPU {
	return GPU{
		Name:     "h100-500w-hbm2e",
		PeakBF16: 800e12,
		PeakFP8:  1600e12,
		HBMBytes: 96e9,
		HBMBW:    2.4e12,
	}
}

// GTT returns the Grand Teton Training platform: RDMA backend at 400 Gb/s
// per GPU.
func GTT() Platform {
	return Platform{
		Name:        "gtt",
		GPU:         h100PowerLimited(),
		GPUsPerHost: 8,
		IntraBW:     450e9,
		InterBW:     50e9, // 400 Gb/s
		NetEff:      0.55, // calibrated: ~27 GB/s achieved (Table 5 SendRecv)
		HopLatency:  33e-6,

		GEMMEff: 0.367, // calibrated: CP1 TTFT(128K) = 42 s (Table 7)
		AttnEff: 0.675, // 540 TF/s standalone FA3 / 800 TF/s peak (Appendix A)

		KernelOverhead:  9e-6,
		All2AllBase:     50e-6,
		A2ABWBoost:      1.4, // multi-stream All2All drives the NIC harder than one peer
		ARLatencyBase:   50e-6,
		ARLatencyPerHop: 30e-6,
		StepOverhead:    2e-3,
	}
}

// GTI returns the Grand Teton Inference platform: frontend TCP/IP at
// 100 Gb/s per GPU with ~3 GB/s achieved per GPU (§4.2.1).
func GTI() Platform {
	p := GTT()
	p.Name = "gti"
	p.InterBW = 12.5e9 // 100 Gb/s
	p.NetEff = 0.24    // ~3 GB/s achieved, per the paper's GPU traces
	p.HopLatency = 120e-6
	p.ARLatencyBase = 100e-6
	p.ARLatencyPerHop = 100e-6
	return p
}

// GB200Like returns a hypothetical NVLink-connected multi-host platform in
// the spirit of the paper's GB200 remark (§4.2.2): cross-host bandwidth
// close to intra-host, where multi-node TP regains viability. Used by the
// ablation tables only.
func GB200Like() Platform {
	p := GTT()
	p.Name = "gb200-like"
	p.InterBW = 450e9
	p.NetEff = 0.8
	p.HopLatency = 5e-6
	p.ARLatencyBase = 15e-6
	p.ARLatencyPerHop = 10e-6
	return p
}

// Platforms returns the built-in platforms keyed by name.
func Platforms() map[string]Platform {
	out := map[string]Platform{}
	for _, p := range []Platform{GTT(), GTI(), GB200Like()} {
		out[p.Name] = p
	}
	return out
}
