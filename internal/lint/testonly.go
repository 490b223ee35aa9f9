package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly reports code that only tests reach: a func, method, or
// package-level const or var declared in a non-test file when every
// reference to it is in a _test.go file or inside its own declaration,
// including a name with no reference at all. The module's packages
// should hold what its programs call; a helper only a test needs
// belongs in a test file, and a name nothing calls goes.
//
// References are counted across the whole module (bench/ and cmd/
// included), whichever packages are selected, by declaration position:
// the loader typechecks each file from one AST, so a declaration has
// the same token.Pos in every pass and every importing package.
// Silent, as code outside tests reaches them:
//   - a method that satisfies an interface type the module's non-test
//     code names or converts to, also when the method reaches the
//     implementing type only by promotion through an embedded field;
//   - the methods the standard library calls through an interface:
//     Error, String, Unwrap, Is and As, with their standard signatures;
//   - a name used inside a func Example* (in-package or in the external
//     test package), as an example documents the API and runs as a test;
//   - init, main and blank names.
//
// A name whose one non-test user is itself test-only counts as used
// until that user moves into a test file; the next run reports it.
//
// Struct fields are out of scope: reflection (encoding/json reads
// bench/'s result fields) and unkeyed composite literals set them
// without naming them, so a field's references say nothing about
// whether programs use it.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "no func, method, const or var that only _test.go files reference: delete it or move it into a test file",
	Run:  runTestOnly,
}

// reach is what the module's code references, keyed by declaration
// position. One reach is shared by every Package of a load.
type reach struct {
	live   map[token.Pos]bool // non-test code, an Example, or an interface the module uses reaches it
	tested map[token.Pos]bool // a _test.go file references it

	ifaces map[*types.Interface]bool // interfaces non-test code uses
}

func newReach() *reach {
	return &reach{
		live:   make(map[token.Pos]bool),
		tested: make(map[token.Pos]bool),
		ifaces: make(map[*types.Interface]bool),
	}
}

// addFile records the references one typechecked file makes. In a
// non-test file every top-level declaration counts, bar references to
// itself; in a test file every reference is a tested one, and those in
// an Example* function are live too.
func (r *reach) addFile(info *types.Info, f *ast.File, test bool) {
	// mark records the uses under n that do not point back into own.
	mark := func(n, own ast.Node, live bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if !test {
				r.addIfaces(info.Types[e].Type)
			}
			id, ok := e.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || (own.Pos() <= obj.Pos() && obj.Pos() < own.End()) {
				return true
			}
			if live {
				r.live[obj.Pos()] = true
			} else {
				r.tested[obj.Pos()] = true
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if test {
				mark(d, d, false)
				if d.Recv == nil && strings.HasPrefix(d.Name.Name, "Example") {
					mark(d, d, true)
				}
			} else {
				mark(d, d, true)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				mark(s, s, !test)
			}
		}
	}
}

// addIfaces records the interfaces t is or takes: an expression of an
// interface type, or a function with one among its parameters or
// results (sort.Sort converts its argument without naming the type).
func (r *reach) addIfaces(t types.Type) {
	if t == nil {
		return
	}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			r.ifaces[it] = true
		}
	}
	add(t)
	if sig, ok := t.Underlying().(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				add(tup.At(i).Type())
			}
		}
	}
}

// addImplementers marks live every method by which a named type of pkg
// satisfies an interface non-test code uses, the promoted ones
// included. Call it once every file of the load was added.
func (r *reach) addImplementers(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		for it := range r.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				r.live[obj.Pos()] = true
			}
		}
	}
}

// stdlibCalls reports whether fn is one of the methods the standard
// library calls through an interface of its own: error's Error,
// fmt.Stringer's String, and the Unwrap, Is and As that errors.Is and
// errors.As look for.
func stdlibCalls(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	params, results := sig.Params(), sig.Results()
	errT := types.Universe.Lookup("error").Type()
	takes := func(t types.Type) bool { return params.Len() == 1 && types.Identical(params.At(0).Type(), t) }
	gives := func(ts ...types.Type) bool {
		for _, t := range ts {
			if results.Len() == 1 && types.Identical(results.At(0).Type(), t) {
				return true
			}
		}
		return false
	}
	switch fn.Name() {
	case "Error", "String":
		return params.Len() == 0 && gives(types.Typ[types.String])
	case "Unwrap":
		return params.Len() == 0 && gives(errT, types.NewSlice(errT))
	case "Is":
		return takes(errT) && gives(types.Typ[types.Bool])
	case "As":
		return takes(types.Universe.Lookup("any").Type()) && gives(types.Typ[types.Bool])
	}
	return false
}

func runTestOnly(p *Package) []Diagnostic {
	var diags []Diagnostic
	check := func(id *ast.Ident) {
		obj := p.Info.Defs[id]
		if obj == nil || id.Name == "_" || p.reach.live[obj.Pos()] {
			return
		}
		what := "var"
		switch obj := obj.(type) {
		case *types.Const:
			what = "const"
		case *types.Func:
			what = "func"
			if obj.Type().(*types.Signature).Recv() != nil {
				what = "method"
				if stdlibCalls(obj) {
					return
				}
			} else if obj.Name() == "init" || (obj.Name() == "main" && p.Pkg.Name() == "main") {
				return
			}
		}
		if p.reach.tested[obj.Pos()] {
			diags = append(diags, p.diag(id.Pos(), "testonly",
				"%s %s is referenced only from _test.go files: move it into one, or delete it", what, id.Name))
		} else {
			diags = append(diags, p.diag(id.Pos(), "testonly",
				"%s %s has no reference outside its own declaration: delete it", what, id.Name))
		}
	}
	for _, f := range p.Files {
		if p.TestFile[f] {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				if d.Tok != token.VAR && d.Tok != token.CONST {
					continue
				}
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						check(id)
					}
				}
			}
		}
	}
	return diags
}
