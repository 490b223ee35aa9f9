package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// calleeFunc resolves the function or method a call expression
// invokes, or nil for calls through function values, built-ins, and
// type conversions.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isFunc reports whether fn is the package-level function path.name.
func isFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// recvNamed returns the named type of a method's receiver, or nil
// for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// typeIsFrom reports whether t (through pointers) is a named type
// declared in package path, optionally with one of the given names.
func typeIsFrom(t types.Type, path string, names ...string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != path {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// fileBase returns the base filename a position lives in.
func (p *Package) fileBase(n ast.Node) string {
	return filepath.Base(p.Position(n.Pos()).Filename)
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t or *t implements error.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}
