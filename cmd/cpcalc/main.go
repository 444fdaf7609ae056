// Command cpcalc is the paper's evaluation on the paper's hardware. By
// default it evaluates the analytical formulas for a chosen model, platform
// and CP group size: the pass-KV/pass-Q selection thresholds (Equations 1-3
// and 5), predicted TTFT/TTIT with full breakdowns, KV-cache capacity, and
// the MFU accounting of Appendix A. -exp regenerates the paper's tables and
// figures, and -tracev2 replays a cploadgen trace through the virtual-time
// serving simulator.
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

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perf"
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
	tracev2 := fs.String("tracev2", "", "replay this cploadgen tracev2 file through the discrete-event serving simulator")
	simOut := fs.String("sim-out", "", "write the simulated cp-serving-bench/v1 report here (requires -tracev2)")
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
		return perf.WriteServeReplay(out, *tracev2, *simOut, time.Now().Unix())
	}

	m, err := pickModel(*modelName)
	if err != nil {
		return err
	}
	plat, ok := hw.Platforms()[*platName]
	if !ok {
		return fmt.Errorf("unknown platform %q", *platName)
	}
	return perf.WriteFormulas(out, perf.Query{
		System: perf.System{Model: m, Plat: plat, CPNodes: *nodes, TPNodes: *tpNodes},
		T:      *ctx, P: *cached, Batch: *batch,
		TTFTTarget: *ttftTarget, TTITTarget: *ttitTarget,
	})
}
