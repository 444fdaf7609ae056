// Package lint is the repo's invariant analyzer suite: repo-specific
// static-analysis rules that enforce at analysis time the properties every
// soak and bit-identity test defends at run time — no wall clocks or global
// randomness in deterministic paths, no map-iteration order leaking into
// encoders or float accumulation, exhaustive wire frame-kind switches, no
// mutex held across a channel send or conn write, every cp_* metric series
// pre-registered, and no exported function under internal/ that only tests
// call.
//
// The suite is stdlib-only (go/parser, go/ast, go/types via the source
// importer) and driven by cmd/cplint. A finding can be suppressed in place
// with an annotation on the offending line or the line above:
//
//	//cplint:allow <rule>[,<rule>...] <reason>
//
// The reason is mandatory — an allow without one is itself a finding.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/report"
)

// Finding is the shared diagnostic shape (see internal/report).
type Finding = report.Finding

// An Analyzer is one rule: it inspects a package and reports findings.
// Returned positions are token.Pos values resolved by the driver.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, m *Module) []posFinding
}

// posFinding is an analyzer-internal finding carrying a position instead of
// a resolved file:line (the driver resolves and filters it).
type posFinding struct {
	Pos     token.Pos
	Message string
}

// Analyzers returns the full rule suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		mapOrderAnalyzer(),
		wireExhaustiveAnalyzer(),
		lockSendAnalyzer(),
		metricRegAnalyzer(),
		testOnlyAnalyzer(),
	}
}

// RuleNames returns the valid rule ids (used to validate allow
// annotations).
func RuleNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// allowSet maps file -> line -> rules allowed on that line.
type allowSet map[string]map[int]map[string]bool

const allowPrefix = "//cplint:allow"

// collectAllows scans a package's comments for //cplint:allow annotations.
// Malformed annotations (no rule, unknown rule, missing reason) are
// reported as findings under the "allow" pseudo-rule.
func collectAllows(p *Package, m *Module, valid map[string]bool) (allowSet, []Finding) {
	allows := allowSet{}
	var bad []Finding
	addBad := func(pos token.Pos, msg string) {
		file, line := m.Position(pos)
		bad = append(bad, Finding{File: file, Line: line, Rule: "allow", Message: msg})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //cplint:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					addBad(c.Pos(), "allow annotation names no rule: want //cplint:allow <rule>[,<rule>] <reason>")
					continue
				}
				rules := strings.Split(fields[0], ",")
				ok := true
				for _, r := range rules {
					if !valid[r] {
						addBad(c.Pos(), "allow annotation names unknown rule \""+r+"\"")
						ok = false
					}
				}
				if len(fields) < 2 {
					addBad(c.Pos(), "allow annotation for "+fields[0]+" has no reason: a justification is mandatory")
					ok = false
				}
				if !ok {
					continue
				}
				file, line := m.Position(c.Pos())
				if allows[file] == nil {
					allows[file] = map[int]map[string]bool{}
				}
				if allows[file][line] == nil {
					allows[file][line] = map[string]bool{}
				}
				for _, r := range rules {
					allows[file][line][r] = true
				}
			}
		}
	}
	return allows, bad
}

// allowed reports whether a finding for rule at (file, line) is suppressed
// by an annotation on the same line or the line above.
func (a allowSet) allowed(rule, file string, line int) bool {
	byLine := a[file]
	if byLine == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if rules := byLine[l]; rules != nil && rules[rule] {
			return true
		}
	}
	return false
}

// Run executes every analyzer against the packages its policy selects and
// returns the surviving findings sorted by position. Malformed allow
// annotations are reported for every package any rule covers.
func (m *Module) Run(pol Policy) []Finding {
	valid := map[string]bool{}
	for _, name := range RuleNames() {
		valid[name] = true
	}
	var out []Finding
	allowsByPkg := map[*Package]allowSet{}
	badReported := map[*Package]bool{}
	for _, a := range Analyzers() {
		for _, p := range m.Pkgs {
			if !pol.Applies(a.Name, p.Rel) {
				continue
			}
			allows, ok := allowsByPkg[p]
			if !ok {
				var bad []Finding
				allows, bad = collectAllows(p, m, valid)
				allowsByPkg[p] = allows
				if !badReported[p] {
					out = append(out, bad...)
					badReported[p] = true
				}
			}
			for _, pf := range a.Run(p, m) {
				file, line := m.Position(pf.Pos)
				if allows.allowed(a.Name, file, line) {
					continue
				}
				out = append(out, Finding{File: file, Line: line, Rule: a.Name, Message: pf.Message})
			}
		}
	}
	rep := report.Report{Findings: out}
	rep.Sort()
	return rep.Findings
}

// --- shared AST/type helpers ------------------------------------------------

// importedPkgPath resolves expr to an imported package path when expr is a
// plain package-qualifier identifier ("time" in time.Now).
func importedPkgPath(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// constObjOf resolves a case expression to the constant object it names,
// or nil for literals and non-constants.
func constObjOf(info *types.Info, expr ast.Expr) types.Object {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	if obj, ok := info.Uses[id].(*types.Const); ok {
		return obj
	}
	return nil
}

// rootIdentObj resolves the base identifier object of expr (x in x, x.f,
// x[i], *x, &x), or nil.
func rootIdentObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isFloat reports whether t's underlying type is a floating-point basic.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// enclosingFuncBodies returns, for every function (decl or literal) in the
// file, its body block — each analyzed as its own lock/escape scope.
func enclosingFuncBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		}
		return true
	})
	return out
}
