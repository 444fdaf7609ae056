package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
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

// TestReadmeReferenceTables holds README's two reference tables to a
// server that has served a generate. In the "/v1/stats reference" table,
// every key of the served document has a row, and every key a row names is
// one statsResponse declares. In "Metrics reference", every family /metrics
// exposes has a row with its type and label keys (and a HELP line from the
// registration set). A row names its keys in backticks, each a full path:
// "*" stands for any key of a map, a final "*" for every key below, and a
// final "name[]" for every key of the array's elements.
func TestReadmeReferenceTables(t *testing.T) {
	srv, err := New(Config{Transformer: transformer.Tiny(31), Ranks: 2, TokenBudget: 4, Cohorts: []string{"chat"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	call := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	call(http.MethodPost, "/v1/generate", `{"session":1,"prompt":[4,19,22,7,3],"max_tokens":4,"cohort":"chat"}`)

	t.Run("stats", func(t *testing.T) {
		var doc map[string]any
		if err := json.Unmarshal(call(http.MethodGet, "/v1/stats", ""), &doc); err != nil {
			t.Fatal(err)
		}
		served := map[string]bool{}
		servedKeys("", doc, served)
		declared := map[string]bool{}
		declaredKeys("", reflect.TypeOf(statsResponse{}), declared)
		var rows []string
		for cell := range readmeTable(t, "../../README.md", "## `/v1/stats` reference") {
			rows = append(rows, backticked(cell)...)
		}
		for _, p := range slices.Sorted(maps.Keys(served)) {
			if !slices.ContainsFunc(rows, func(k string) bool { return keyMatches(k, p) }) {
				t.Errorf("/v1/stats serves %s, which no README row names", p)
			}
		}
		paths := slices.Collect(maps.Keys(declared))
		for _, k := range rows {
			if !slices.ContainsFunc(paths, func(p string) bool { return keyMatches(k, p) }) {
				t.Errorf("README row %s names no key of /v1/stats", k)
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		body := call(http.MethodGet, "/metrics", "")
		types := map[string]string{}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			switch {
			case len(f) == 4 && f[1] == "TYPE":
				types[f[2]] = f[3]
			case len(f) > 2 && f[1] == "HELP" && strings.Join(f[3:], " ") == "No help.":
				t.Errorf("/metrics exposes %s, which metricHelp does not register", f[2])
			}
		}
		samples, err := trace.ParseProm(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		labels := map[string]map[string]bool{}
		for _, s := range samples {
			family := s.Name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(s.Name, suffix); ok && types[base] == "histogram" {
					family = base
				}
			}
			if labels[family] == nil {
				labels[family] = map[string]bool{}
			}
			for k := range s.Labels {
				if k != "le" {
					labels[family][k] = true
				}
			}
		}
		rows := map[string]map[string]string{}
		for cell, row := range readmeTable(t, "../../README.md", "### Metrics reference") {
			for _, name := range backticked(cell) {
				rows[name] = row
			}
		}
		for _, family := range slices.Sorted(maps.Keys(types)) {
			row, ok := rows[family]
			if !ok {
				t.Errorf("/metrics exposes %s, which has no README row", family)
				continue
			}
			if row["type"] != types[family] {
				t.Errorf("README types %s %q, /metrics %q", family, row["type"], types[family])
			}
			want := strings.Join(slices.Sorted(maps.Keys(labels[family])), ", ")
			if got := strings.Join(slices.Sorted(slices.Values(backticked(row["labels"]))), ", "); got != want {
				t.Errorf("README labels %s with %q, /metrics with %q", family, got, want)
			}
		}
	})
}

// servedKeys adds the path of every leaf of a decoded JSON value v under
// path to out; an array of objects is one level, named "key[]".
func servedKeys(path string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		if len(v) == 0 {
			out[path] = true
		}
		for k, e := range v {
			servedKeys(joinKey(path, k), e, out)
		}
	case []any:
		if len(v) == 0 {
			out[path] = true
		}
		for _, e := range v {
			if _, ok := e.(map[string]any); !ok {
				out[path] = true
				continue
			}
			servedKeys(path+"[]", e, out)
		}
	default:
		out[path] = true
	}
}

// declaredKeys adds to out the path of every key the JSON encoding of a
// value of type t declares under path, inner ones included: a map's keys are
// "*", a slice of structs' elements "key[]".
func declaredKeys(path string, t reflect.Type, out map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer:
		declaredKeys(path, t.Elem(), out)
	case reflect.Map:
		out[path+".*"] = true
		declaredKeys(path+".*", t.Elem(), out)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Struct {
			out[path+"[]"] = true
			declaredKeys(path+"[]", t.Elem(), out)
		}
	case reflect.Struct:
		for _, f := range reflect.VisibleFields(t) {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || f.Anonymous || name == "-" {
				continue
			}
			p := joinKey(path, cmp.Or(name, f.Name))
			out[p] = true
			declaredKeys(p, f.Type, out)
		}
	}
}

func joinKey(path, k string) string {
	if path == "" {
		return k
	}
	return path + "." + k
}

// keyMatches reports whether README key k names path p, segment by segment:
// "*" on either side stands for any one key, a final "*" in k for every key
// below (the map's own path included), and a final "name[]" in k for every
// key of the array's elements.
func keyMatches(k, p string) bool {
	ks, ps := strings.Split(k, "."), strings.Split(p, ".")
	for i, seg := range ks {
		last := i == len(ks)-1
		if last && seg == "*" {
			return len(ps) >= i
		}
		if i >= len(ps) || seg != ps[i] && seg != "*" && ps[i] != "*" {
			return false
		}
		if last && strings.HasSuffix(seg, "[]") {
			return true
		}
	}
	return len(ks) == len(ps)
}

var backtickRE = regexp.MustCompile("`([^`]+)`")

// backticked returns the backticked names in a table cell.
func backticked(cell string) []string {
	var out []string
	for _, m := range backtickRE.FindAllStringSubmatch(cell, -1) {
		out = append(out, m[1])
	}
	return out
}
