package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/runinfo"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the spread rule in the README is stated in. It needs two values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Metric is one reported number: its declared name and unit, the value, and
// how many samples stand behind it.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// WorkloadReport is one workload's part of a run's output.
type WorkloadReport struct {
	Name      string  `json:"name"`
	Rounds    int     `json:"rounds"`
	MeasuredS float64 `json:"measured_s"`
	// Ops counts measured requests plus stream checks; Failed those that
	// returned a non-200 reply or a mismatching stream.
	Ops     int      `json:"ops"`
	Failed  int      `json:"failed"`
	Metrics []Metric `json:"metrics,omitempty"`
	Layers  []Metric `json:"layers,omitempty"`
}

// all lists the end-to-end metrics, then the per-layer ones.
func (w WorkloadReport) all() []Metric {
	return append(append([]Metric(nil), w.Metrics...), w.Layers...)
}

// RunnerBlock records where and how the numbers were produced.
type RunnerBlock struct {
	Runinfo   runinfo.Info `json:"runinfo"`
	Nproc     int          `json:"nproc"`
	Seed      int64        `json:"seed"`
	Traced    bool         `json:"traced"`
	GitCommit string       `json:"git_commit"`
}

// Report is the -out file: schema cp-benchmark/v1.
type Report struct {
	Schema    string           `json:"schema"`
	Runner    RunnerBlock      `json:"runner"`
	Workloads []WorkloadReport `json:"workloads"`
}

const reportSchema = "cp-benchmark/v1"

// endToEndMetrics folds a workload's rounds into the six gated metrics.
// Samples are pooled across rounds; a failed request contributes no latency.
// alloc_kb_per_tok is the lower quartile over AllocSamples: what a request
// allocates while the engine's sync.Pools stay warm, which repeats within
// 0.5 %. A quarter of the requests, in some runs more than half, also
// re-allocate pool scratch that a GC cycle happened to drop under them, so a
// total or a median carries that timing. Those buffers are few and large, so
// the allocation count hardly feels them, and allocs_per_tok stays a median
// (README, noise notes).
func endToEndMetrics(w Workload, rounds []RoundResult) []Metric {
	var setups, ttfts, tpots, kbPerTok, mallocsPerTok []float64
	var tokens int
	var measured float64
	for _, r := range rounds {
		setups = append(setups, r.SetupS)
		for _, s := range r.Samples {
			if s.Err == nil {
				ttfts = append(ttfts, s.TTFTMs)
				tpots = append(tpots, s.GenMs/float64(w.Out))
			}
		}
		for _, a := range r.Allocs {
			if a.Tokens > 0 {
				kbPerTok = append(kbPerTok, float64(a.Bytes)/1024/float64(a.Tokens))
				mallocsPerTok = append(mallocsPerTok, float64(a.Mallocs)/float64(a.Tokens))
			}
		}
		tokens += r.Tokens
		measured += r.MeasuredS
	}
	values := map[string]Metric{
		"setup_s":          {Value: median(setups), N: len(setups)},
		"ttft_ms_p50":      {Value: median(ttfts), N: len(ttfts)},
		"tpot_ms_p50":      {Value: median(tpots), N: len(tpots)},
		"tok_per_s":        {Value: float64(tokens) / measured, N: len(ttfts)},
		"alloc_kb_per_tok": {Value: percentile(kbPerTok, 25), N: len(kbPerTok)},
		"allocs_per_tok":   {Value: median(mallocsPerTok), N: len(mallocsPerTok)},
	}
	return declared(endToEnd(), values)
}

// declared orders computed values by their declaration and stamps name and
// unit, so a report always lists exactly the declared metrics.
func declared(defs []MetricDef, values map[string]Metric) []Metric {
	out := make([]Metric, len(defs))
	for i, d := range defs {
		m := values[d.Name]
		m.Name, m.Unit = d.Name, d.Unit
		out[i] = m
	}
	return out
}

// printReport writes the human-readable form: one block per workload, every
// metric by name with its unit and sample count.
func printReport(out io.Writer, rep Report) {
	r := rep.Runner
	fmt.Fprintf(out, "%s  seed=%d traced=%v  nproc=%d gomaxprocs=%d workers=%d %s %s/%s  commit=%s\n",
		rep.Schema, r.Seed, r.Traced, r.Nproc, r.Runinfo.GOMAXPROCS, r.Runinfo.Workers,
		r.Runinfo.GoVersion, r.Runinfo.GOOS, r.Runinfo.GOARCH, r.GitCommit)
	for _, w := range rep.Workloads {
		fmt.Fprintf(out, "\n%s  rounds=%d measured=%.1fs ops=%d failed=%d\n", w.Name, w.Rounds, w.MeasuredS, w.Ops, w.Failed)
		tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
		for _, m := range w.all() {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
		tw.Flush()
	}
}
