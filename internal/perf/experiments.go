package perf

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/model"
)

// The experiments regenerate every table and figure of the paper's
// evaluation (§4 plus Appendices A and D): the calibrated model for latency
// numbers, the event simulator for schedules, and the transformer cluster
// for exactness and communication accounting. Paper-reported values sit
// beside the model's predictions, so the output of cpcalc -exp all
// (testdata/experiments.golden) doubles as the paper-versus-model record.

// table is one regenerated table or figure.
type table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// addRow appends a formatted row.
func (t *table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// experiment is one registered table generator.
type experiment struct {
	title string
	run   func() (*table, error)
}

var registry = map[string]experiment{}

func register(id, title string, run func() (*table, error)) {
	registry[id] = experiment{title: title, run: run}
}

// title returns the registered title for an id.
func title(id string) string { return registry[id].title }

// experimentIDs returns all experiment ids in sorted order.
func experimentIDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// runExperiment executes one experiment by id.
func runExperiment(id string) (*table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("perf: unknown experiment %q (have %v)", id, experimentIDs())
	}
	t, err := e.run()
	if err != nil {
		return nil, fmt.Errorf("perf: experiment %s: %w", id, err)
	}
	return t, nil
}

// WriteExperimentList prints every experiment id with its title.
func WriteExperimentList(w io.Writer) {
	for _, id := range experimentIDs() {
		fmt.Fprintf(w, "%-24s %s\n", id, title(id))
	}
}

// WriteExperiments regenerates one experiment by id, or every experiment in
// id order for "all", printing each table followed by a blank line.
func WriteExperiments(w io.Writer, id string) error {
	ids := []string{id}
	if id == "all" {
		ids = experimentIDs()
	}
	for _, id := range ids {
		t, err := runExperiment(id)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared configuration helpers.
// ---------------------------------------------------------------------------

func gtt(cp, tp int) System {
	return System{Model: model.Llama3405B(), Plat: GTT(), CPNodes: cp, TPNodes: tp}
}

func gti(cp int) System {
	return System{Model: model.Llama3405B(), Plat: GTI(), CPNodes: cp, TPNodes: 1}
}

func ms(sec float64) string { return fmt.Sprintf("%.2f", sec*1000) }

func sec(sec float64) string { return fmt.Sprintf("%.2f", sec) }

func us(sec float64) string { return fmt.Sprintf("%.0f", sec*1e6) }

func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }
