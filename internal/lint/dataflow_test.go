package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"
)

// TestDataflow exercises the taint/alias layer directly on the flow
// fixture: taint seeds at calls to source() and must reach exactly the
// locals that alias the seeded memory — through plain assignments,
// struct-field stores and reads, range loops, and receiver/&arg calls —
// while value copies, fresh allocations, and scalar reads stay clean.
func TestDataflow(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "src", "flow"), "stmaker/internal/lintfixture/flow")
	if err != nil {
		t.Fatal(err)
	}
	seed := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "source"
	}

	cases := map[string]map[string]bool{ // func -> local -> expect tainted
		"locals": {"a": true, "b": true, "c": true, "d": false, "n": false},
		"fields": {"p": true, "q": true, "r": true, "s": false, "t": false},
		"ranges": {"m": false, "m2": true, "v": true, "w": false},
		"calls":  {"p": true, "q": false, "u": false, "v": true, "w": false},
	}

	funcs := make(map[string]*ast.FuncDecl)
	for _, fd := range pkg.Funcs {
		funcs[fd.Name.Name] = fd
	}
	for fn, locals := range cases {
		fd := funcs[fn]
		if fd == nil {
			t.Fatalf("fixture function %s not found", fn)
		}
		fl := newFlow(pkg, fd.Body, seed)
		// Resolve each local by its defining identifier in the body.
		objs := make(map[string]types.Object)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := pkg.Info.Defs[id]; o != nil {
					objs[id.Name] = o
				}
			}
			return true
		})
		for name, want := range locals {
			o := objs[name]
			if o == nil {
				t.Errorf("%s: local %s not found", fn, name)
				continue
			}
			if got := fl.taintedObj(o); got != want {
				t.Errorf("%s: tainted(%s) = %v, want %v", fn, name, got, want)
			}
		}
	}
}
