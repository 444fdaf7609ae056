// Command cpcalc is the paper's evaluation on the paper's hardware. By
// default it evaluates the analytical formulas for a chosen model, platform
// and CP group size: the pass-KV/pass-Q selection thresholds (Equations 1-3
// and 5), predicted TTFT/TTIT with full breakdowns, KV-cache capacity, and
// the MFU accounting of Appendix A. -exp regenerates the paper's tables and
// figures, and -tracev2 replays a cploadgen trace through the serving
// scheduler in virtual time.
//
// Usage:
//
//	cpcalc -model llama3-405b -platform gtt -nodes 4 -ctx 128000 -cached 0
//	cpcalc -list
//	cpcalc -exp table4
//	cpcalc -exp all
//	cpcalc -tracev2 trace.jsonl -sim-out BENCH_serving_sim.json
//
// Speed of the engine itself is measured elsewhere: bash benchmark/run.sh.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/workload"
)

func pickModel(name string) (model.Config, error) {
	switch name {
	case "llama3-405b":
		return model.Llama3405B(), nil
	case "llama3-70b":
		return model.Llama370B(), nil
	case "llama3-8b":
		return model.Llama38B(), nil
	case "tiny":
		return model.Tiny(), nil
	default:
		return model.Config{}, fmt.Errorf("unknown model %q (llama3-405b, llama3-70b, llama3-8b, tiny)", name)
	}
}

func main() {
	// The report writers leave write errors to their writer; a bufio.Writer
	// keeps the first one and Flush returns it.
	out := bufio.NewWriter(os.Stdout)
	err := run(os.Args[1:], out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpcalc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cpcalc", flag.ExitOnError)
	modelName := fs.String("model", "llama3-405b", "model config")
	platName := fs.String("platform", "gtt", "platform: gtt, gti, gb200-like")
	nodes := fs.Int("nodes", 4, "CP nodes")
	tpNodes := fs.Int("tpnodes", 1, "hosts per TP group (multi-node TP baseline)")
	ctx := fs.Int("ctx", 128000, "new tokens T")
	cached := fs.Int("cached", 0, "previously cached tokens P")
	batch := fs.Int("batch", 1, "decode batch size")
	ttftTarget := fs.Float64("ttft", 0, "TTFT target in seconds for deployment planning (0 = off)")
	ttitTarget := fs.Float64("ttit", 0, "TTIT target in seconds for deployment planning (0 = off)")
	list := fs.Bool("list", false, "list the paper's tables and figures by experiment id")
	exp := fs.String("exp", "", "regenerate one table or figure by experiment id, or 'all'")
	tracev2 := fs.String("tracev2", "", "replay this cploadgen tracev2 file through the serving scheduler in virtual time")
	simOut := fs.String("sim-out", "", "write the virtual replay's cp-serving-bench/v1 report here (requires -tracev2)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	switch {
	case *simOut != "" && *tracev2 == "":
		return errors.New("-sim-out requires -tracev2")
	case *list:
		perf.WriteExperimentList(out)
		return nil
	case *exp != "":
		return perf.WriteExperiments(out, *exp)
	case *tracev2 != "":
		return replayTrace(out, *tracev2, *simOut, time.Now().Unix())
	}

	m, err := pickModel(*modelName)
	if err != nil {
		return err
	}
	plat, ok := perf.Platforms()[*platName]
	if !ok {
		return fmt.Errorf("unknown platform %q", *platName)
	}
	return perf.WriteFormulas(out, perf.Query{
		System: perf.System{Model: m, Plat: plat, CPNodes: *nodes, TPNodes: *tpNodes},
		T:      *ctx, P: *cached, Batch: *batch,
		TTFTTarget: *ttftTarget, TTITTarget: *ttitTarget,
	})
}

// replayTrace prints a per-cohort summary of the cp-trace/v2 file at
// tracePath replayed in virtual time and, when simOut is set, writes its
// cp-serving-bench/v1 report there, stamped with generatedUnix.
func replayTrace(w io.Writer, tracePath, simOut string, generatedUnix int64) error {
	tr, err := workload.ReadTraceFile(tracePath)
	if err != nil {
		return err
	}
	res, err := server.ReplayVirtual(tr)
	if err != nil {
		return err
	}
	rep := workload.BuildServingReport(tr, res.Results, res.DurationMs, generatedUnix)
	if err := workload.ValidateServingReport(rep); err != nil {
		return fmt.Errorf("virtual replay report invalid: %w", err)
	}
	fmt.Fprintf(w, "replayed %d requests (%d sessions) in %.1f virtual ms over %d steps\n",
		rep.Totals.Requests, rep.Trace.Sessions, rep.DurationMs, res.Batch.Iterations)
	for _, c := range rep.Cohorts {
		fmt.Fprintf(w, "  %-14s %4d req  ttft p50/p99 %.2f/%.2f ms  itl p50 %.3f ms  slo met=%v\n",
			c.Cohort, c.Requests, c.TTFT.P50Ms, c.TTFT.P99Ms, c.ITL.P50Ms, c.SLO.Met)
	}
	if simOut == "" {
		return nil
	}
	if err := workload.WriteServingReport(simOut, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote virtual replay report to %s\n", simOut)
	return nil
}
