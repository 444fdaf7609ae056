package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// Every rung file committed at the repository root is one rungate wrote
// from committed revisions: it parses under this schema, holds at most one
// run of each kind, each run compares at least two pairs of named, clean
// revisions and every metric saw every pair, and each side's quartiles are
// in order. BENCH_rungs_ci.json is CI's one-pair smoke run, written into the
// checkout and never committed.
func TestCommittedRungFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_rungs_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	paths = slices.DeleteFunc(paths, func(p string) bool { return filepath.Base(p) == "BENCH_rungs_ci.json" })
	if len(paths) == 0 {
		t.Fatal("no BENCH_rungs_*.json at the repository root")
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f File
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if f.Schema != Schema {
			t.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
		}
		kinds := map[string]bool{}
		for _, r := range f.Runs {
			if (r.Kind != "ab" && r.Kind != "aa") || kinds[r.Kind] {
				t.Errorf("%s: a run of kind %q after %v", path, r.Kind, kinds)
			}
			kinds[r.Kind] = true
			for _, rev := range []string{r.Base, r.Head} {
				if rev == "" || strings.HasSuffix(rev, "-dirty") {
					t.Errorf("%s: %s run compares revision %q, not a committed one", path, r.Kind, rev)
				}
			}
			if r.Pairs < 2 || len(r.Benchmarks) == 0 {
				t.Errorf("%s: %s run has %d pairs and %d benchmarks", path, r.Kind, r.Pairs, len(r.Benchmarks))
			}
			for _, bench := range r.Benchmarks {
				for _, m := range bench.Metrics {
					what := fmt.Sprintf("%s: %s run, %s %s", path, r.Kind, bench.Name, m.Unit)
					if m.Pairs != r.Pairs || m.HeadWins < 0 || m.HeadWins > m.Pairs {
						t.Errorf("%s: %d head wins in %d pairs of the run's %d", what, m.HeadWins, m.Pairs, r.Pairs)
					}
					for side, s := range map[string]Summary{"base": m.Base, "head": m.Head} {
						if !(s.Q1 <= s.Median && s.Median <= s.Q3) {
							t.Errorf("%s: %s quartiles out of order: %+v", what, side, s)
						}
					}
				}
			}
		}
	}
}
