package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked package of the module under
// analysis.
type Package struct {
	ImportPath string
	Dir        string // absolute
	Rel        string // module-relative dir ("" for the module root package)
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects soft type-check errors. Analyzers still run on a
	// package with type errors (syntactic rules don't need types), but
	// rules degrade gracefully when Info lacks an answer.
	TypeErrors []error
}

// Module is the full analysis unit: every buildable package under one
// module root, sharing a FileSet so positions are comparable.
type Module struct {
	Root string // absolute module root (directory of go.mod)
	Path string // module path from go.mod
	Pkgs []*Package
	Fset *token.FileSet

	groupsOnce sync.Once
	groups     map[types.Object]*constGroup
	regOnce    sync.Once
	reg        map[string]bool
	usedOnce   sync.Once
	used       map[*types.Func]bool
}

// Position resolves a node to a module-relative file path and line.
func (m *Module) Position(pos token.Pos) (file string, line int) {
	p := m.Fset.Position(pos)
	file = p.Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, p.Line
}

// The source importer type-checks stdlib dependencies from $GOROOT/src; it
// is shared process-wide so repeated loads (fixture tests) pay for each
// stdlib package once. Type-checking runs with cgo disabled so packages
// like net resolve to their pure-Go variants instead of invoking the cgo
// tool.
var (
	sharedFset    = token.NewFileSet()
	stdOnce       sync.Once
	stdImporter   types.Importer
	sharedBuildMu sync.Mutex
)

func stdlibImporter() types.Importer {
	stdOnce.Do(func() {
		build.Default.CgoEnabled = false
		stdImporter = importer.ForCompiler(sharedFset, "source", nil)
	})
	return stdImporter
}

type checker struct {
	root    string
	modpath string
	fset    *token.FileSet
	std     types.Importer
	memo    map[string]*Package
	loading map[string]bool
}

func newChecker(root, modpath string) *checker {
	return &checker{
		root:    root,
		modpath: modpath,
		fset:    sharedFset,
		std:     stdlibImporter(),
		memo:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer: module-internal paths recurse into the
// checker, everything else goes to the stdlib source importer.
func (c *checker) Import(path string) (*types.Package, error) {
	if path == c.modpath || strings.HasPrefix(path, c.modpath+"/") {
		p, err := c.check(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return c.std.Import(path)
}

func (c *checker) check(importPath string) (*Package, error) {
	if p, ok := c.memo[importPath]; ok {
		return p, nil
	}
	if c.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	c.loading[importPath] = true
	defer delete(c.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, c.modpath), "/")
	dir := filepath.Join(c.root, filepath.FromSlash(rel))
	sharedBuildMu.Lock()
	bp, err := build.Default.ImportDir(dir, 0)
	sharedBuildMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Rel:        filepath.ToSlash(rel),
		Files:      files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer:    c,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	tp, err := conf.Check(importPath, c.fset, files, p.Info)
	p.Types = tp
	if err != nil && tp == nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	c.memo[importPath] = p
	return p, nil
}

// moduleDirs walks root for buildable package directories, skipping
// testdata, hidden, and underscore-prefixed trees.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// modPath extracts the module path from root/go.mod.
func modPath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// LoadModule parses and type-checks every buildable package under the
// module rooted at root (the directory holding go.mod). Test files are
// excluded — the analyzers enforce production-path invariants, and tests
// legitimately use wall clocks and global randomness.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mp, err := modPath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	c := newChecker(root, mp)
	m := &Module{Root: root, Path: mp, Fset: c.fset}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := mp
		if rel != "." {
			ip = mp + "/" + filepath.ToSlash(rel)
		}
		p, err := c.check(ip)
		if err != nil {
			// A directory that fails build-level import (e.g. no buildable
			// files for this GOOS) is skipped, not fatal.
			if strings.Contains(err.Error(), "no buildable Go source files") {
				continue
			}
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, p)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Rel < m.Pkgs[j].Rel })
	return m, nil
}

// LoadPackage loads the single package at the module-relative dir rel
// (module deps are type-checked as needed but only the target is listed in
// the returned Module). Used by tests that lint one package in isolation.
//
//cplint:allow testonly TestNoGlobalRand lints one package with it
func LoadPackage(root, rel string) (*Module, *Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	mp, err := modPath(root)
	if err != nil {
		return nil, nil, err
	}
	c := newChecker(root, mp)
	ip := mp
	if rel != "" && rel != "." {
		ip = mp + "/" + filepath.ToSlash(rel)
	}
	p, err := c.check(ip)
	if err != nil {
		return nil, nil, err
	}
	m := &Module{Root: root, Path: mp, Fset: c.fset, Pkgs: []*Package{p}}
	return m, p, nil
}

// LoadDir loads a standalone directory of Go files as a single-package
// module with import path "fixture/<base>" — the fixture-test loader.
// Fixtures may import only the standard library.
//
//cplint:allow testonly TestFixtures loads each testdata fixture with it
func LoadDir(dir string) (*Module, *Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	mp := "fixture/" + filepath.Base(dir)
	c := newChecker(dir, mp)
	p, err := c.check(mp)
	if err != nil {
		return nil, nil, err
	}
	m := &Module{Root: dir, Path: mp, Fset: c.fset, Pkgs: []*Package{p}}
	return m, p, nil
}
