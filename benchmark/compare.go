package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadRuns reads one side of a comparison: a directory (every *.json in it,
// by name) or a comma-separated list of -out files.
func loadRuns(arg string) ([]Report, error) {
	var files []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(arg, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	} else {
		files = strings.Split(arg, ",")
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no run files", arg)
	}
	var runs []Report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", f, r.Schema, reportSchema)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// series collects, per workload and metric, one value per run in run order.
// A run file may hold one workload or all of them.
func series(runs []Report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		for _, w := range r.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for _, m := range w.all() {
				out[w.Name][m.Name] = append(out[w.Name][m.Name], m.Value)
			}
		}
	}
	return out
}

// comparison is one metric × workload row of the table.
type comparison struct {
	Workload, Metric string
	A, B             [3]float64 // median, first and third quartile
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative = better). Spread is the wider side's quartile distance as a
	// share of its median.
	Worse, Spread float64
	Bound         float64 // 0 = ungated (per-layer)
	Wins, Pairs   int     // pairs (run i of A, run i of B) B won; ties count for neither
	Verdict       string
}

// compareMetric applies the rule of the choosing-metrics guide (§6, §8):
// worse when B's median is worse than A's by more than the bound and by
// more than the run-to-run spread; unresolved when the spread is wider than
// the bound; ok otherwise. Ungated metrics get no verdict.
func compareMetric(def MetricDef, a, b []float64) comparison {
	c := comparison{Metric: def.Name, Bound: def.Bound, Verdict: "-"}
	summary := func(xs []float64) ([3]float64, float64) {
		q1, q3 := quartiles(xs)
		med := median(xs)
		return [3]float64{med, q1, q3}, math.Abs(ratio(q3-q1, med))
	}
	var sa, sb float64
	c.A, sa = summary(a)
	c.B, sb = summary(b)
	c.Spread = max(sa, sb)
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	c.Worse = sign*ratio(c.B[0]-c.A[0], math.Abs(c.A[0])) + 0 // + 0 turns -0 into 0
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			c.Wins++
		}
	}
	if def.Bound > 0 {
		switch {
		case c.Worse > def.Bound && c.Worse > c.Spread:
			c.Verdict = "worse"
		case c.Spread > def.Bound:
			c.Verdict = "unresolved"
		default:
			c.Verdict = "ok"
		}
	}
	return c
}

// compareRuns builds the table in declaration order: workloads, then the
// end-to-end metrics, then whatever per-layer metrics both sides carry.
func compareRuns(a, b []Report) []comparison {
	sa, sb := series(a), series(b)
	var out []comparison
	for _, w := range workloads() {
		for _, def := range append(endToEnd(), perLayer()...) {
			va, vb := sa[w.Name][def.Name], sb[w.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareMetric(def, va, vb)
			c.Workload = w.Name
			out = append(out, c)
		}
	}
	return out
}

// compareMain prints the table and exits non-zero when any gated metric is
// worse beyond its bound.
func compareMain(argA, argB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(argA)
	if err == nil {
		var b []Report
		if b, err = loadRuns(argB); err == nil {
			rows := compareRuns(a, b)
			if len(rows) == 0 {
				err = fmt.Errorf("the two sets share no workload")
			} else {
				return printComparison(stdout, rows, len(a), len(b))
			}
		}
	}
	fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
	return 2
}

func printComparison(out io.Writer, rows []comparison, na, nb int) int {
	fmt.Fprintf(out, "A: %d run files, B: %d run files; median [q1, q3]; worse = how much worse B's median is, as a share of A's\n", na, nb)
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse\tspread\tbound\tB wins\tverdict")
	worse := 0
	for _, c := range rows {
		bound := "-"
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", c.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.2f%%\t%.2f%%\t%s\t%d/%d\t%s\n",
			c.Workload, c.Metric, c.A[0], c.A[1], c.A[2], c.B[0], c.B[1], c.B[2],
			c.Worse*100, c.Spread*100, bound, c.Wins, c.Pairs, c.Verdict)
		if c.Verdict == "worse" {
			worse++
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(out, "%d metric × workload pairs are worse beyond their bound\n", worse)
		return 1
	}
	return 0
}
