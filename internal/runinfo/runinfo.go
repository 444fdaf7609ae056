// Package runinfo captures the runner environment every BENCH JSON emitter
// must record. BENCH_kernel.json was once recorded on a 1-CPU container
// with no way to tell from the file; embedding Info makes every recorded
// number attributable to the machine that produced it.
package runinfo

import (
	"runtime"

	"repro/internal/parallel"
	"repro/internal/simd"
)

// Info describes the runner a benchmark executed on.
type Info struct {
	// NumCPU is runtime.NumCPU() — the cores the container exposes.
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's P count at capture time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the shared kernel worker-pool width (internal/parallel),
	// the fan-out every parallelized sweep actually uses.
	Workers int `json:"workers"`
	// GoVersion pins the toolchain.
	GoVersion string `json:"go_version"`
	// GOOS/GOARCH identify the platform (SIMD dispatch differs by arch).
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// SIMD is the vector tier the kernels ran at ("avx512", "avx2" or
	// "portable"): two hosts of one GOARCH can differ here, and every
	// kernel-bound number with them.
	SIMD string `json:"simd"`
}

// Capture snapshots the current runner environment.
func Capture() Info {
	return Info{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Workers(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		SIMD:       simd.Active().String(),
	}
}
