// Command benchmark is the repository's benchmark: four paper-shaped
// closed-loop workloads driven in-process through the real serving stack
// (server.New(cfg).Handler().ServeHTTP — JSON, handlers, scheduler, cluster,
// ring; no client sockets), six end-to-end metrics per workload, and a
// separately traced run that times every layer from outside through its
// public functions. See README.md.
//
//	go run . -seed 1                       # every workload, end-to-end metrics
//	go run . -seed 1 -workload ring_tcp    # one workload; last line is one JSON object
//	go run . -seed 1 -trace 1              # the traced run: per-layer metrics, spans.jsonl
//	go run . -compare runsA runsB          # A/B (or A/A) table from two sets of -out files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/runinfo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: equal seeds give byte-identical request sets")
	only := fs.String("workload", "", "run one workload (default: all four)")
	traced := fs.Int("trace", 0, "1 = the separate traced run: per-layer metrics and spans.jsonl")
	seconds := fs.Int("seconds", runSeconds, "accepted because the benchmark driver passes run_seconds; the work is fixed and ignores it")
	compare := fs.Bool("compare", false, "compare two sets of -out files: -compare A B (directories or comma-separated files)")
	out := fs.String("out", "", "also write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two arguments: A B")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: usage: [-seed N] [-workload W] [-trace 0|1] [-out FILE] | -compare A B")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "benchmark: the work is fixed and sized for %d s; -seconds %d changes nothing\n", runSeconds, *seconds)
	}
	if err := checkRegistration(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	// More pool workers than cores makes every kernel timing a scheduling
	// artefact; refuse rather than report it.
	if parallel.Workers() > runtime.NumCPU() {
		fmt.Fprintf(stderr, "benchmark: %d pool workers on %d CPUs; refusing to run oversubscribed\n", parallel.Workers(), runtime.NumCPU())
		return 2
	}
	todo := workloads()
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *only)
			return 2
		}
		todo = []Workload{w}
	}

	e := benchEnv()
	rep := Report{Schema: reportSchema, Runner: RunnerBlock{
		Runinfo: runinfo.Capture(), Nproc: runtime.NumCPU(), Seed: *seed,
		Traced: *traced == 1, GitCommit: gitCommit(),
	}}
	var spans *spanLog
	if *traced == 1 {
		spans = newSpanLog()
	}
	for _, w := range todo {
		var wr WorkloadReport
		var err error
		if *traced == 1 {
			wr, err = traceWorkload(e, w, *seed, spans, stderr)
		} else {
			wr, err = runWorkload(e, w, *seed, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	printReport(stdout, rep)
	if spans != nil {
		all := spans.snapshot()
		fmt.Fprintf(stdout, "\nspans (total and self time by name)\n")
		for _, s := range summarizeSpans(all) {
			fmt.Fprintf(stdout, "  %-22s n=%-5d total=%10.2f ms  self=%10.2f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
		if err := writeSpans(spansPath(*out), all); err != nil {
			fmt.Fprintf(stderr, "benchmark: spans: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: -out: %v\n", err)
			return 1
		}
	}
	line, failed := resultLine(rep)
	fmt.Fprintln(stdout, line)
	if failed > 0 {
		return 1
	}
	return 0
}

// runWorkload is the untraced run of one workload: rounds of fixed work,
// every stream check, the six end-to-end metrics.
func runWorkload(e Env, w Workload, seed int64, progress io.Writer) (WorkloadReport, error) {
	ref, err := newVerifier(e)
	if err != nil {
		return WorkloadReport{}, err
	}
	var results []RoundResult
	for i, in := range genInputs(e, w, seed, w.Rounds) {
		res, err := runRound(e, w, in, roundOpts{ref: ref})
		if err != nil {
			return WorkloadReport{}, fmt.Errorf("round %d: %w", i, err)
		}
		fmt.Fprintf(progress, "%s round %d/%d: setup %.2fs measured %.2fs\n", w.Name, i+1, w.Rounds, res.SetupS, res.MeasuredS)
		results = append(results, res)
	}
	wr := summarize(w, results, progress)
	wr.Metrics = endToEndMetrics(w, results)
	return wr, nil
}

// summarize counts a workload's operations and failures and logs each
// failure's cause.
func summarize(w Workload, rounds []RoundResult, progress io.Writer) WorkloadReport {
	wr := WorkloadReport{Name: w.Name, Rounds: len(rounds)}
	for _, r := range rounds {
		wr.MeasuredS += r.MeasuredS
		wr.Ops += len(r.Samples) + r.Checks
		wr.Failed += r.FailedChecks
		for _, s := range r.Samples {
			if s.Err != nil {
				wr.Failed++
				fmt.Fprintf(progress, "%s: session %d failed: %v\n", w.Name, s.Session, s.Err)
			}
		}
		for _, err := range r.CheckErrs {
			fmt.Fprintf(progress, "check failed: %v\n", err)
		}
	}
	return wr
}

// resultLine renders the machine-readable last line: one JSON object with
// correct, attempted, failed and the metrics by name. With several
// workloads in one run the names are prefixed with the workload.
func resultLine(rep Report) (string, int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted, failed := 0, 0
	for _, w := range rep.Workloads {
		attempted += w.Ops
		failed += w.Failed
		for _, m := range w.all() {
			name := m.Name
			if len(rep.Workloads) > 1 {
				name = w.Name + "." + name
			}
			metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		// A NaN or Inf metric cannot be encoded; that is a failed run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, attempted, max(failed, 1)), max(failed, 1)
	}
	return string(line), failed
}

// spansPath puts spans.jsonl beside the -out file, or under the build
// directory the checkout ignores when there is none.
func spansPath(out string) string {
	dir := ".bench_build"
	if out != "" {
		dir = filepath.Dir(out)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "spans.jsonl"
	}
	return filepath.Join(dir, "spans.jsonl")
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// benchmark driver's) reports "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
