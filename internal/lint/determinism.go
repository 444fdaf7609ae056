package lint

import (
	"go/ast"
)

// clockCalls are the time-package functions that read or wait on the wall
// clock or a runtime timer. time.Duration arithmetic and time.ParseDuration
// are pure and stay legal.
var clockCalls = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// globalRandOK are the math/rand(/v2) functions that are constructors for
// explicitly-seeded generators rather than draws from the global source.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// determinismAnalyzer forbids wall-clock reads and global math/rand draws
// in packages whose outputs must be pure functions of their inputs — the
// paper's bit-identity claim and the trace/chaos replay contracts both die
// the moment a deterministic path consults the clock or an unseeded RNG.
func determinismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid time.Now/time.Since/timers and global math/rand in deterministic packages",
		Run: func(p *Package, m *Module) []posFinding {
			var out []posFinding
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						// Any mention counts, called or not: a clock handed
						// around as a func value (now: time.Now) reads the
						// wall clock just the same.
						if importedPkgPath(p.Info, n.X) == "time" && clockCalls[n.Sel.Name] {
							out = append(out, posFinding{
								Pos:     n.Pos(),
								Message: "wall-clock/timer function time." + n.Sel.Name + " in a deterministic package",
							})
						}
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						pkg := importedPkgPath(p.Info, sel.X)
						if (pkg == "math/rand" || pkg == "math/rand/v2") && !globalRandOK[sel.Sel.Name] {
							out = append(out, posFinding{
								Pos:     n.Pos(),
								Message: "global math/rand call rand." + sel.Sel.Name + "; draw from an explicitly seeded *rand.Rand instead",
							})
						}
					}
					return true
				})
			}
			return out
		},
	}
}
