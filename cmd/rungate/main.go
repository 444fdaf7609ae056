// Command rungate writes the rung file of an interleaved A/B run of the
// in-package Go benchmarks: scripts/rungate.sh runs the base's and the
// head's test binaries in ABBA order, one `go test -bench` output per side
// and pair, and rungate reads them back and records, for every benchmark and
// metric, both sides' medians and quartiles, the pairs in which the head did
// better and the pair count, with the run's runinfo.
//
// Usage:
//
//	rungate -out BENCH_rungs_LABEL.json -kind ab|aa -base REV -head REV \
//	        -pattern P -benchtime 200x -cpu 2 BASE_DIR HEAD_DIR
//
// BASE_DIR and HEAD_DIR hold one file per pair, pairNN.txt, the same names on
// both sides. A file that already exists keeps its run of the other kind, so
// one file holds the base-against-head run ("ab") and the A/A run of the
// same pattern ("aa") that shows the noise floor its differences stand on.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/simd"
)

// Schema names the rung file's layout.
const Schema = "cp-bench-rungs/v1"

// File is one BENCH_rungs_<label>.json.
type File struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one interleaved comparison.
type Run struct {
	Kind       string      `json:"kind"` // "ab": base against head; "aa": the head against itself
	Base       string      `json:"base"`
	Head       string      `json:"head"`
	Pattern    string      `json:"pattern"`
	Benchtime  string      `json:"benchtime"`
	CPU        int         `json:"cpu"`
	Pairs      int         `json:"pairs"`
	RunInfo    RunInfo     `json:"runinfo"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// RunInfo is what decides whether two rung files can be compared.
type RunInfo struct {
	Date      string `json:"date"`
	Go        string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	CPUModel  string `json:"cpu_model"`
	SIMD      string `json:"simd"`
	CPWorkers string `json:"cp_workers"` // the CP_WORKERS the binaries saw; empty means GOMAXPROCS at start
}

// Benchmark is one benchmark's metrics, in the order its output line
// reports them.
type Benchmark struct {
	Name    string   `json:"name"`
	Metrics []Metric `json:"metrics"`
}

// Metric compares one reported value across the pairs.
type Metric struct {
	Unit     string  `json:"unit"`
	Better   string  `json:"better"` // "lower" or "higher"
	Pairs    int     `json:"pairs"`
	HeadWins int     `json:"head_wins"` // pairs in which the head's value is strictly better
	Base     Summary `json:"base"`
	Head     Summary `json:"head"`
	Delta    float64 `json:"delta"` // head median ÷ base median − 1; 0 when the base median is 0
}

// Summary is one side's spread over the pairs.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func main() {
	out := flag.String("out", "", "rung file to write (merged with an existing one)")
	kind := flag.String("kind", "ab", `"ab" (base against head) or "aa" (the head against itself)`)
	base := flag.String("base", "", "base revision")
	head := flag.String("head", "", "head revision")
	pattern := flag.String("pattern", "", "the benchmark pattern that was run")
	benchtime := flag.String("benchtime", "", "the -test.benchtime of every run")
	cpu := flag.Int("cpu", 0, "the -test.cpu of every run")
	flag.Parse()
	if *out == "" || flag.NArg() != 2 || (*kind != "ab" && *kind != "aa") {
		fmt.Fprintln(os.Stderr, "usage: rungate -out FILE -kind ab|aa [-base REV -head REV -pattern P -benchtime T -cpu N] BASE_DIR HEAD_DIR")
		os.Exit(2)
	}
	run, err := compare(flag.Arg(0), flag.Arg(1))
	if err == nil {
		run.Kind, run.Base, run.Head = *kind, *base, *head
		run.Pattern, run.Benchtime, run.CPU = *pattern, *benchtime, *cpu
		run.RunInfo = hostInfo()
		err = merge(*out, run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rungate:", err)
		os.Exit(1)
	}
}

// compare reads the pair files of both sides and summarises every metric
// that each pair reports on both.
func compare(baseDir, headDir string) (Run, error) {
	names, err := filepath.Glob(filepath.Join(baseDir, "pair*.txt"))
	if err != nil || len(names) == 0 {
		return Run{}, fmt.Errorf("no pair files in %s", baseDir)
	}
	slices.Sort(names)
	var base, head []results
	for _, name := range names {
		b, err := parseFile(name)
		if err != nil {
			return Run{}, err
		}
		h, err := parseFile(filepath.Join(headDir, filepath.Base(name)))
		if err != nil {
			return Run{}, err
		}
		base, head = append(base, b), append(head, h)
	}
	run := Run{Pairs: len(names)}
	for _, bench := range base[0].order {
		out := Benchmark{Name: bench}
		for _, unit := range base[0].units[bench] {
			var a, b []float64
			for i := range base {
				av, aok := base[i].values[bench][unit]
				bv, bok := head[i].values[bench][unit]
				if !aok || !bok {
					return Run{}, fmt.Errorf("%s %s missing from pair %d", bench, unit, i+1)
				}
				a, b = append(a, av), append(b, bv)
			}
			out.Metrics = append(out.Metrics, summarise(unit, a, b))
		}
		run.Benchmarks = append(run.Benchmarks, out)
	}
	return run, nil
}

// results is one `go test -bench` output: each benchmark's value per unit.
type results struct {
	order  []string
	units  map[string][]string
	values map[string]map[string]float64
}

func parseFile(name string) (results, error) {
	f, err := os.Open(name)
	if err != nil {
		return results{}, err
	}
	defer f.Close()
	r, err := parse(f)
	if err != nil {
		return results{}, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}

// parse reads the benchmark lines of a `go test -bench` output:
// "BenchmarkName-P  N  v1 unit1  v2 unit2 ...". Other lines are skipped.
func parse(r io.Reader) (results, error) {
	res := results{units: map[string][]string{}, values: map[string]map[string]float64{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if _, dup := res.values[name]; dup {
			return results{}, fmt.Errorf("%s reported twice", name)
		}
		res.order = append(res.order, name)
		res.values[name] = map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return results{}, fmt.Errorf("%s: value %q: %w", name, f[i], err)
			}
			res.units[name] = append(res.units[name], f[i+1])
			res.values[name][f[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return results{}, err
	}
	if len(res.order) == 0 {
		return results{}, errors.New("no benchmark lines")
	}
	return res, nil
}

// higherIsBetter lists the units that improve upward. Every other unit
// improves downward: times, bytes, allocations, pool jobs, and busy-cores
// (process CPU ÷ wall), which at equal wall time is less CPU spent.
var higherIsBetter = map[string]bool{"GFLOP/s": true, "MB/s": true}

func summarise(unit string, base, head []float64) Metric {
	m := Metric{Unit: unit, Better: "lower", Pairs: len(base), Base: spread(base), Head: spread(head)}
	if higherIsBetter[unit] {
		m.Better = "higher"
	}
	for i := range base {
		if m.Better == "lower" && head[i] < base[i] || m.Better == "higher" && head[i] > base[i] {
			m.HeadWins++
		}
	}
	if m.Base.Median != 0 {
		m.Delta = m.Head.Median/m.Base.Median - 1
	}
	return m
}

// spread is the median and quartiles of v, interpolated between the order
// statistics (R's type 7).
func spread(v []float64) Summary {
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return Summary{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
}

func hostInfo() RunInfo {
	info := RunInfo{
		Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		SIMD: simd.Detected().String(), CPWorkers: os.Getenv("CP_WORKERS"),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				info.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return info
}

// merge writes run into the rung file at path, replacing a run of the same
// kind and keeping the other.
func merge(path string, run Run) error {
	file := File{Schema: Schema}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if file.Schema != Schema {
			return fmt.Errorf("%s: schema %q, want %q", path, file.Schema, Schema)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	file.Runs = slices.DeleteFunc(file.Runs, func(r Run) bool { return r.Kind == run.Kind })
	file.Runs = append(file.Runs, run)
	slices.SortFunc(file.Runs, func(a, b Run) int { return strings.Compare(a.Kind, b.Kind) })
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
