package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A `go test -bench` output parses into each benchmark's values per unit,
// custom metrics included, and every other line is skipped.
func TestParseReadsBenchmarkLines(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro/internal/transformer
BenchmarkDecodeStep/B=1-2   	     200	    412345 ns/op	         1.23 busy-cores	         0 jobs/step	    1234 B/op	      12 allocs/op
BenchmarkPrefillChunk/last-2	     200	  86700000 ns/op
PASS
ok  	repro/internal/transformer	3.1s
`
	r, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.order, ","); got != "BenchmarkDecodeStep/B=1-2,BenchmarkPrefillChunk/last-2" {
		t.Fatalf("benchmarks %s", got)
	}
	if got := strings.Join(r.units["BenchmarkDecodeStep/B=1-2"], ","); got != "ns/op,busy-cores,jobs/step,B/op,allocs/op" {
		t.Fatalf("units %s", got)
	}
	if v := r.values["BenchmarkDecodeStep/B=1-2"]["busy-cores"]; v != 1.23 {
		t.Fatalf("busy-cores %v", v)
	}
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("an output without benchmark lines parsed")
	}
}

// The quartiles interpolate between order statistics, and a win is a pair
// in which the head is strictly better in the unit's direction.
func TestSummariseCountsWinsByDirection(t *testing.T) {
	if s := spread([]float64{4, 1, 3, 2, 5}); s != (Summary{Median: 3, Q1: 2, Q3: 4}) {
		t.Fatalf("spread %+v", s)
	}
	if s := spread([]float64{1, 2}); s != (Summary{Median: 1.5, Q1: 1.25, Q3: 1.75}) {
		t.Fatalf("spread %+v", s)
	}
	base, head := []float64{10, 10, 10, 10}, []float64{9, 11, 10, 8}
	if m := summarise("ns/op", base, head); m.HeadWins != 2 || m.Better != "lower" || m.Pairs != 4 || math.Abs(m.Delta+0.05) > 1e-12 {
		t.Fatalf("ns/op %+v", m)
	}
	if m := summarise("GFLOP/s", base, head); m.HeadWins != 1 || m.Better != "higher" {
		t.Fatalf("GFLOP/s %+v", m)
	}
	if m := summarise("jobs/step", []float64{0, 0}, []float64{0, 0}); m.HeadWins != 0 || m.Delta != 0 {
		t.Fatalf("jobs/step %+v", m)
	}
}

// compare pairs the sides' files by name, and merge keeps the run of the
// other kind while replacing one of the same kind.
func TestCompareAndMerge(t *testing.T) {
	dir := t.TempDir()
	for side, ns := range map[string][]string{"A": {"100", "110", "120"}, "B": {"90", "95", "130"}} {
		if err := os.Mkdir(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		for i, v := range ns {
			line := "BenchmarkX-2\t10\t" + v + " ns/op\n"
			if err := os.WriteFile(filepath.Join(dir, side, "pair0"+string(rune('1'+i))+".txt"), []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	run, err := compare(filepath.Join(dir, "A"), filepath.Join(dir, "B"))
	if err != nil {
		t.Fatal(err)
	}
	m := run.Benchmarks[0].Metrics[0]
	if run.Pairs != 3 || m.HeadWins != 2 || m.Base.Median != 110 || m.Head.Median != 95 {
		t.Fatalf("run %+v metric %+v", run, m)
	}
	out := filepath.Join(dir, "BENCH_rungs_t.json")
	for _, kind := range []string{"ab", "aa", "ab"} {
		run.Kind = kind
		if err := merge(out, run); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema || len(f.Runs) != 2 || f.Runs[0].Kind != "aa" || f.Runs[1].Kind != "ab" {
		t.Fatalf("merged file %s", b)
	}
}
