package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// testonlyCheck flags the functions and methods of internal/ packages
// that no production code calls. The loader type-checks only non-test
// files, so a declaration with no reference in any loaded package's
// types.Info.Uses is called by tests alone (or by nothing). internal/
// packages have no users outside the loaded tree, so such code is dead
// weight: delete it, or move it into a _test.go file of its package.
//
// A reference from inside the declaration's own body (recursion) does
// not count, and uses of a generic function's or method's instantiation
// count for its origin. Methods are exempt when their receiver
// implements an interface that declares them, whether the module's own
// or the standard library's: a call through the interface never names
// the concrete method.
type testonlyCheck struct {
	cands []testonlyCand
	used  map[*types.Func]bool
	// ifaces indexes every interface the loaded tree can see by the
	// names of its methods: the named interfaces of each loaded package
	// and of everything it imports, and interface literals in code.
	ifaces map[string][]*types.Interface
	seen   map[*types.Package]bool
}

type testonlyCand struct {
	fn  *types.Func
	pos token.Pos
	pkg *Package
}

func (*testonlyCheck) name() string { return "testonly" }

func (c *testonlyCheck) pkg(_ *reporter, p *Package) {
	internal := strings.Contains("/"+p.Path+"/", "/internal/")
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			var self *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self, _ = p.Info.Defs[fd.Name].(*types.Func)
				if internal && self != nil && fd.Name.Name != "init" && fd.Name.Name != "_" {
					c.cands = append(c.cands, testonlyCand{fn: self, pos: fd.Name.Pos(), pkg: p})
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
					c.used[fn.Origin()] = true
				}
				return true
			})
		}
	}
	for _, tv := range p.Info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			c.addInterface(it)
		}
	}
	c.addScopes(p.Types)
}

// addScopes indexes the named interfaces of pkg and, once each, of every
// package it imports.
func (c *testonlyCheck) addScopes(pkg *types.Package) {
	if c.seen[pkg] {
		return
	}
	c.seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			c.addInterface(it)
		}
	}
	for _, imp := range pkg.Imports() {
		c.addScopes(imp)
	}
}

func (c *testonlyCheck) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		c.ifaces[name] = append(c.ifaces[name], it)
	}
}

// implementsDeclaring reports whether fn's receiver type implements an
// indexed interface that declares a method of fn's name.
func (c *testonlyCheck) implementsDeclaring(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr := types.NewPointer(namedType(recv.Type()))
	for _, it := range c.ifaces[fn.Name()] {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func (c *testonlyCheck) finish(r *reporter) {
	for _, cand := range c.cands {
		if c.used[cand.fn] || c.implementsDeclaring(cand.fn) {
			continue
		}
		kind := "func"
		if cand.fn.Type().(*types.Signature).Recv() != nil {
			kind = "method"
		}
		r.report(cand.pkg, c.name(), cand.pos,
			"%s %s has no caller outside tests: delete it or move it into a _test.go file", kind, cand.fn.Name())
	}
}
