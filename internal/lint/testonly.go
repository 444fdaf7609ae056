package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// testOnlyAnalyzer reports an exported function or method that no non-test
// file of the module references: production code that only its own tests
// call. The loader never parses _test.go files, so every use the module
// records is a production use; benchmark/ counts, because LoadModule walks
// it. A method that implements an interface type anywhere in the
// type-checked universe is exempt, since its callers reach it through the
// interface. A deliberate oracle or test hook carries
// //cplint:allow testonly <reason naming the test>.
func testOnlyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "testonly",
		Doc:  "every exported function or method has a caller outside the tests",
		Run: func(p *Package, m *Module) []posFinding {
			used := m.usedFuncs()
			var out []posFinding
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					fn, ok := p.Info.Defs[fd.Name].(*types.Func)
					if !ok || used[fn] {
						continue
					}
					out = append(out, posFinding{
						Pos:     fd.Name.Pos(),
						Message: fn.Name() + " is exported but only tests call it: delete it, or annotate the oracle or test hook with the test that needs it",
					})
				}
			}
			return out
		},
	}
}

// usedFuncs is the set of functions and methods declared in the module
// that some non-test file references from outside the declaration's own
// body, plus every method that implements an interface type.
func (m *Module) usedFuncs() map[*types.Func]bool {
	m.usedOnce.Do(func() {
		used := map[*types.Func]bool{}
		for _, p := range m.Pkgs {
			// Declaration bodies, so that recursion is not a caller.
			type span struct{ lo, hi int }
			bodies := map[*types.Func]span{}
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
							bodies[fn] = span{int(fd.Pos()), int(fd.End())}
						}
					}
				}
			}
			for id, obj := range p.Info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				fn = fn.Origin()
				if b, ok := bodies[fn]; ok && int(id.Pos()) >= b.lo && int(id.Pos()) < b.hi {
					continue
				}
				used[fn] = true
			}
		}
		for _, fn := range m.interfaceMethods() {
			used[fn] = true
		}
		m.used = used
	})
	return m.used
}

// interfaceMethods returns the module's methods that implement a method of
// some interface: error and the errors package's Unwrap protocols, every
// named interface in the module and in every package it imports,
// transitively, and every interface literal the module writes.
func (m *Module) interfaceMethods() []*types.Func {
	ifaces := errorProtocols()
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	var named []*types.Named
	for _, p := range m.Pkgs {
		visit(p.Types)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !isGeneric(tn.Type()) {
				if n, ok := tn.Type().(*types.Named); ok && n.NumMethods() > 0 {
					named = append(named, n)
				}
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok {
					if it, ok := p.Info.TypeOf(lit).(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
		}
	}
	var out []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !hasMethodNames(ms, it) || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
		}
	}
	return out
}

// errorProtocols are error and the Unwrap interfaces that the errors
// package asserts inside its function bodies, where no package scope
// shows them.
func errorProtocols() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	unwrap := func(result types.Type) *types.Interface {
		res := types.NewTuple(types.NewVar(token.NoPos, nil, "", result))
		sig := types.NewSignatureType(nil, nil, nil, nil, res, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
	}
	return []*types.Interface{
		errT.Underlying().(*types.Interface),
		unwrap(errT),
		unwrap(types.NewSlice(errT)),
	}
}

// hasMethodNames is Implements' cheap prefilter: ms names every method of it.
func hasMethodNames(ms *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// isGeneric reports whether t is a named type with type parameters.
func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
