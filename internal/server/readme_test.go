package server

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/transformer"
)

// TestReadmeOutcomesTable holds README's *Request outcomes* table to the
// code: every outcome constant has a row named after it, and each row's
// HTTP column is statusFor of the error exitLocked gives a request that ends
// the way the row says (200 when it gives none), with "—" in the Error
// column exactly then. A mismatch names the row.
func TestReadmeOutcomesTable(t *testing.T) {
	rows := readmeTable(t, "../../README.md", "### Request outcomes")
	s, _, _ := newSeamScheduler(t, SchedulerConfig{TokenBudget: 4})
	expired, stop := context.WithDeadline(context.Background(), time.Now())
	defer stop()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// Each row's way of ending: the outcome, its cause, and the request
	// that ends so.
	type ending struct {
		o     outcome
		cause error
		ctx   context.Context
		token bool // a generate stream that has produced a token
	}
	endings := map[string]ending{
		"served":    {o: outServed},
		"truncated": {o: outClosed, token: true},
		"closed":    {o: outClosed},
		"released":  {o: outReleased},
		"canceled":  {o: outCanceled, ctx: canceled},
		"deadline":  {o: outCanceled, ctx: expired},
		"shed":      {o: outShed},
		"capacity":  {o: outFailed, cause: fmt.Errorf("prefill: %w", &transformer.CapacityError{Seqs: []int{1}})},
		"failed":    {o: outFailed, cause: errors.New("decode: rank 1 unreachable")},
	}

	for _, name := range outcomeConstants(t) {
		row := strings.ToLower(strings.TrimPrefix(name, "out"))
		if _, ok := rows[row]; !ok {
			t.Errorf("outcome %s has no row %q in the table", name, row)
		}
	}
	for name, cells := range rows {
		e, ok := endings[name]
		if !ok {
			t.Errorf("row %q: this test does not know how a request ends so", name)
			continue
		}
		r := s.newRequest(1, []int{1}, RequestOptions{})
		if e.ctx != nil {
			r.ctx = e.ctx
		}
		if e.token {
			r.collect, r.tokens = true, []int{3}
		}
		s.mu.Lock()
		s.exitLocked(r, e.o, e.cause, false)
		s.mu.Unlock()
		status := http.StatusOK
		if r.err != nil {
			status = statusFor(r.err)
		}
		digits := strings.TrimSpace(cells["HTTP"])
		if i := strings.IndexFunc(digits, func(c rune) bool { return c < '0' || c > '9' }); i >= 0 {
			digits = digits[:i]
		}
		if got, err := strconv.Atoi(digits); err != nil || got != status {
			t.Errorf("row %q: HTTP column %q, want %d (statusFor of %v)", name, cells["HTTP"], status, r.err)
		}
		if noErr := cells["Error"] == "—"; noErr != (r.err == nil) {
			t.Errorf("row %q: Error column %q, but the request ends with error %v", name, cells["Error"], r.err)
		}
	}
}

// readmeTable parses the first table under heading in the markdown file at
// path into its rows, keyed by the first cell, each a map from the header's
// column names to the trimmed cells.
func readmeTable(t *testing.T, path, heading string) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(data), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("%s has no heading %q", path, heading)
	}
	var lines []string
	for _, line := range strings.Split(after, "\n") {
		if strings.HasPrefix(line, "|") {
			lines = append(lines, line)
		} else if len(lines) > 0 {
			break
		}
	}
	if len(lines) < 3 {
		t.Fatalf("%s: no table under %q", path, heading)
	}
	cells := func(line string) []string {
		out := strings.Split(strings.Trim(line, "| "), "|")
		for i := range out {
			out[i] = strings.TrimSpace(out[i])
		}
		return out
	}
	header := cells(lines[0])
	rows := make(map[string]map[string]string)
	for _, line := range lines[2:] {
		row := make(map[string]string)
		for i, c := range cells(line) {
			if i < len(header) {
				row[header[i]] = c
			}
		}
		rows[row[header[0]]] = row
	}
	return rows
}

// outcomeConstants lists the package's constants of type outcome, from its
// non-test sources.
func outcomeConstants(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			// A spec with neither type nor value repeats the one above it.
			typ := ""
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); ok {
					typ = id.Name
				} else if vs.Type != nil || vs.Values != nil {
					typ = ""
				}
				if typ == "outcome" {
					for _, n := range vs.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no outcome constants found")
	}
	return names
}
