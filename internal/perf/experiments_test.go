package perf

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ablation-decode-owner", "ablation-gb200", "ablation-heuristics", "ablation-jitter",
		"ablation-sharding", "commbytes", "e2e", "fig10", "fig6a", "fig6b", "fig7", "fig8", "fig9",
		"mfu", "plan", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "timeline", "xcheck-overlap",
	}
	got := experimentIDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := runExperiment("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range experimentIDs() {
		tb, err := runExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", tb.ID)
		}
		if tb.Title == "" {
			t.Errorf("%s has no title", tb.ID)
		}
		s := tb.String()
		if !strings.Contains(s, tb.ID) {
			t.Errorf("%s String() missing id", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s row width %d != header %d", tb.ID, len(row), len(tb.Header))
			}
		}
	}
}

func cell(t *testing.T, tb *table, rowContains, col string) string {
	t.Helper()
	ci := -1
	for i, h := range tb.Header {
		if h == col {
			ci = i
		}
	}
	if ci == -1 {
		t.Fatalf("%s: no column %q in %v", tb.ID, col, tb.Header)
	}
	for _, row := range tb.Rows {
		if strings.Contains(strings.Join(row, " "), rowContains) {
			return row[ci]
		}
	}
	t.Fatalf("%s: no row containing %q", tb.ID, rowContains)
	return ""
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// Fig 6a shape: CP8 at 128K must be 6.5-8x faster than CP1.
func TestFig6aScalingShape(t *testing.T) {
	tb, err := runExperiment("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	cp1 := parse(t, cell(t, tb, "128000", "CP1 (s)"))
	cp8 := parse(t, cell(t, tb, "128000", "CP8 (s)"))
	if r := cp1 / cp8; r < 6.5 || r > 8.5 {
		t.Fatalf("CP1/CP8 = %.2f, want near-linear scaling", r)
	}
}

// Table 4 shape: the model's winner column must match the paper's winner on
// the far rows (1% -> pass-Q; >= 10% -> pass-KV).
func TestTable4WinnersMatchPaper(t *testing.T) {
	tb, err := runExperiment("table4")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		missCell, winner, paperWinner := row[2], row[5], row[8]
		if paperWinner == "-" {
			continue
		}
		miss := parse(t, missCell)
		// Near the crossover (2-6%) either answer is acceptable (the paper
		// itself reports <1% differences there).
		if miss > 1.5 && miss < 7 {
			continue
		}
		if winner != paperWinner {
			t.Errorf("at miss %s: model winner %s, paper winner %s", missCell, winner, paperWinner)
		}
	}
}

// commbytes: pass-KV must move fewer ring bytes on full prefill; pass-Q on
// the high-hit-rate follow-up.
func TestCommBytesCrossover(t *testing.T) {
	tb, err := runExperiment("commbytes")
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[string]map[string]float64{}
	for _, row := range tb.Rows {
		sc, variant := row[0], row[1]
		if byScenario[sc] == nil {
			byScenario[sc] = map[string]float64{}
		}
		byScenario[sc][variant] = parse(t, row[2]) + parse(t, row[3])
	}
	full := byScenario["full prefill (miss 100%)"]
	if full["pass-KV"] >= full["pass-Q"] {
		t.Errorf("full prefill: pass-KV bytes %v >= pass-Q %v", full["pass-KV"], full["pass-Q"])
	}
	follow := byScenario["follow-up (miss ~6%)"]
	if follow["pass-Q"] >= follow["pass-KV"] {
		t.Errorf("follow-up: pass-Q bytes %v >= pass-KV %v", follow["pass-Q"], follow["pass-KV"])
	}
}

// MFU table: model column within 15% of the paper's 502 TF/s.
func TestMFUTable(t *testing.T) {
	tb, err := runExperiment("mfu")
	if err != nil {
		t.Fatal(err)
	}
	tf := parse(t, cell(t, tb, "achieved TF/s", "model"))
	if tf < 427 || tf > 577 {
		t.Fatalf("achieved TF/s = %v, want 502 +/- 15%%", tf)
	}
}

// Fig 7: CP ratios must dominate TP ratios at every node count > 1.
func TestFig7CPBeatsTP(t *testing.T) {
	tb, err := runExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		nodes := parse(t, row[0])
		if nodes == 1 {
			continue
		}
		tp, cp := parse(t, row[1]), parse(t, row[2])
		if cp <= tp {
			t.Errorf("at %v nodes: CP ratio %v <= TP ratio %v", nodes, cp, tp)
		}
	}
}

// Ablation: balanced sharding ratio is 1.0, contiguous far worse.
func TestAblationShardingTable(t *testing.T) {
	tb, err := runExperiment("ablation-sharding")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		bal, str, ct := parse(t, row[2]), parse(t, row[3]), parse(t, row[4])
		if bal > 1.001 {
			t.Errorf("balanced ratio %v > 1", bal)
		}
		if str > 1.01 {
			t.Errorf("striped ratio %v should be near 1", str)
		}
		if ct < 2 {
			t.Errorf("contiguous ratio %v suspiciously balanced", ct)
		}
	}
}

// Heuristic ablation: the adaptive selectors must beat both fixed policies
// in mean regret.
func TestAblationHeuristicsOrdering(t *testing.T) {
	tb, err := runExperiment("ablation-heuristics")
	if err != nil {
		t.Fatal(err)
	}
	regret := map[string]float64{}
	for _, row := range tb.Rows {
		regret[row[0]] = parse(t, row[2])
	}
	for _, adaptive := range []string{"Algorithm 1", "Algorithm 5", "fitted empirical"} {
		if regret[adaptive] >= regret["always pass-Q"] {
			t.Errorf("%s regret %v not better than always pass-Q %v",
				adaptive, regret[adaptive], regret["always pass-Q"])
		}
	}
}

// The commbytes table's pass-KV full prefill moves exactly Table 2's ring
// bytes: every ring step circulates one rank's K and V block, so each layer
// carries (N−1)·2·T·NKV·DH·e bytes plus the engine's 8 B/token of position
// and sequence metadata.
func TestCommBytesMatchesTable2ClosedForm(t *testing.T) {
	tb, err := runExperiment("commbytes")
	if err != nil {
		t.Fatal(err)
	}
	m := model.Tiny()
	const n, T = 2, 32
	want := float64(m.Layers*(n-1)) * (2*T*float64(m.NumKV*m.HeadDim)*m.ElemBytes + 8*T)
	if got := parse(t, tb.Rows[0][2]); tb.Rows[0][1] != "pass-KV" || got != want {
		t.Fatalf("full-prefill row %v: ring bytes %v, want L·(N−1)·(2·T·NKV·DH·e + 8T) = %v", tb.Rows[0], got, want)
	}
}

// cpcalc -exp all prints exactly the committed tables. Regenerate the golden
// after an intended model change with
// go run ./cmd/cpcalc -exp all > internal/perf/testdata/experiments.golden
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteExperiments(&got, "all"); err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("cpcalc -exp all differs from testdata/experiments.golden at line %d:\n got: %q\nwant: %q",
				i+1, line(gotLines, i), line(wantLines, i))
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}
