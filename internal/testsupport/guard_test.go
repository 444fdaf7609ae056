package testsupport

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// processWide names the reads that see the whole process, by import path.
var processWide = map[string][]string{
	"runtime": {"ReadMemStats", "NumGoroutine"},
	"testing": {"AllocsPerRun"},
}

const selfPath = "repro/internal/testsupport"

// TestProcessWideReadsRunAlone keeps the rule Alone exists for: every Test
// function in the module that reads a process-wide quantity, in its body or
// through a function or method its package's test files declare, calls
// Alone before the first such read. The benchmark module is its own module
// and cannot import this package, so it is not walked.
func TestProcessWideReadsRunAlone(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // by directory and package name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := filepath.Dir(path) + " " + f.Name.Name
		pkgs[key] = append(pkgs[key], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("found the test files of only %d packages under %s", len(pkgs), root)
	}
	for _, files := range pkgs {
		for _, f := range unaloneReads(fset, files) {
			t.Error(f)
		}
	}
}

// TestGuardFindsAnUnaloneRead runs the check on sources that break the rule
// and on sources that keep it.
func TestGuardFindsAnUnaloneRead(t *testing.T) {
	const head = "package p\nimport (\n\"runtime\"\n\"testing\"\nts \"repro/internal/testsupport\"\n)\n"
	for _, c := range []struct {
		src  string
		want int
	}{
		{"func TestA(t *testing.T) { runtime.NumGoroutine() }", 1},
		{"func TestA(t *testing.T) { testing.AllocsPerRun(1, func() {}) }", 1},
		{"func TestA(t *testing.T) { if ts.Alone(t) { return }; runtime.NumGoroutine() }", 0},
		{"func TestA(t *testing.T) { runtime.NumGoroutine(); ts.Alone(t) }", 1},
		{"func count() int { return runtime.NumGoroutine() }\nfunc TestA(t *testing.T) { count() }", 1},
		{"func count() int { return runtime.NumGoroutine() }\nfunc twice() int { return count() }\nfunc TestA(t *testing.T) { t.Run(\"x\", func(*testing.T) { twice() }) }", 1},
		{"type m struct{}\nfunc (m) read() { var s runtime.MemStats; runtime.ReadMemStats(&s) }\nfunc TestA(t *testing.T) { m{}.read() }", 1},
		{"func sub(t *testing.T) { runtime.NumGoroutine() }\nfunc TestA(t *testing.T) { t.Run(\"x\", sub) }", 1},
		{"func count() int { return runtime.NumGoroutine() }\nfunc TestA(t *testing.T) { if ts.Alone(t) { return }; count() }", 0},
		{"func BenchmarkA(b *testing.B) { runtime.NumGoroutine() }", 0},
		{"func TestA(t *testing.T) { runtime.GC() }", 0},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p_test.go", head+c.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if got := unaloneReads(fset, []*ast.File{f}); len(got) != c.want {
			t.Errorf("%s: %d findings %q, want %d", c.src, len(got), got, c.want)
		}
	}
}

// unaloneReads returns a finding for every Test function in one package's
// test files that reads a process-wide quantity before it calls Alone.
func unaloneReads(fset *token.FileSet, files []*ast.File) []string {
	funcs := map[string][]*ast.FuncDecl{} // functions and methods, by name
	imports := map[*ast.FuncDecl]map[string]string{}
	for _, f := range files {
		names := map[string]string{}
		for _, is := range f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			names[name] = path
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
				imports[fd] = names
			}
		}
	}
	// reading holds the names of the declared functions and methods that
	// read, directly or through another one, to a fixed point.
	reading := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for name, fds := range funcs {
			for _, fd := range fds {
				if !reading[name] && firstCall(fd, imports[fd], reading, isRead).IsValid() {
					reading[name], grew = true, true
				}
			}
		}
	}
	var out []string
	for name, fds := range funcs {
		for _, fd := range fds {
			if !strings.HasPrefix(name, "Test") || fd.Recv != nil {
				continue
			}
			read := firstCall(fd, imports[fd], reading, isRead)
			if !read.IsValid() {
				continue
			}
			if alone := firstCall(fd, imports[fd], nil, isAlone); !alone.IsValid() || alone > read {
				out = append(out, fmt.Sprintf("%s: %s reads a process-wide quantity (line %d) without calling testsupport.Alone first",
					fset.Position(fd.Pos()), name, fset.Position(read).Line))
			}
		}
	}
	sort.Strings(out)
	return out
}

func isRead(path, name string) bool {
	for _, n := range processWide[path] {
		if n == name {
			return true
		}
	}
	return false
}

func isAlone(path, name string) bool { return path == selfPath && name == "Alone" }

// firstCall returns the position of the first place in fd's body that calls
// a package function match accepts, or that names a function or method in
// local; token.NoPos when there is none.
func firstCall(fd *ast.FuncDecl, imports map[string]string, local map[string]bool, match func(path, name string) bool) token.Pos {
	first := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if first.IsValid() {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					if match(path, e.Sel.Name) {
						first = e.Pos()
					}
					return false
				}
			}
			if local[e.Sel.Name] {
				first = e.Pos()
				return false
			}
		case *ast.Ident:
			if local[e.Name] {
				first = e.Pos()
			}
		}
		return true
	})
	return first
}
