package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolSafe flags use-after-put: once a value has been handed back to
// a sync.Pool (pool.Put(x)), a put*-named pool helper (putFrame(bp)),
// or a release/unref-class refcount method (sc.release(pool)), the
// pool owns it — any later reference on the same path reads or
// mutates memory that a concurrent Get may already have handed to
// another goroutine. A slice variable passed as elem to a Conn's
// PutData is consumed the same way: the conn may own it from the call
// on (soda hands large elements over instead of copying them), and
// whether it did depends on a length the analyzer cannot see, so the
// rule is the stricter contract. RepairPut only ever borrows and is
// not covered. These races are invisible to the race detector
// unless a test actually interleaves a reuse, which is exactly why
// the refcount-pooled call state from PR 7 needs a machine-checked
// rule.
//
// The analysis is lexical and intraprocedural: after the put
// statement, every following statement in its block and in the
// enclosing blocks (up to the function's end) is checked for a
// reference to the pooled variable. Reassigning the variable
// (x = ..., x := ...) ends tracking — the name no longer aliases the
// pooled value. A put inside a defer is exempt: it runs at function
// exit, after every lexical use.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "a value returned to a sync.Pool or refcount pool must not be referenced afterwards",
	Run:  runPoolSafe,
}

func runPoolSafe(p *Package) []Diagnostic {
	s := &poolScanner{p: p}
	p.inspect(func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				s.scanList(fn.Body.List, nil)
			}
		case *ast.FuncLit:
			s.scanList(fn.Body.List, nil)
		}
		return true
	})
	return s.diags
}

type pooledPut struct {
	obj      types.Object // the variable holding the pooled value
	call     string       // what consumed it, for the message
	pos      token.Pos
	reported bool
}

type poolScanner struct {
	p     *Package
	diags []Diagnostic
}

// scanList walks one statement list. live carries puts from enclosing
// scopes that are still in effect on entry; the return value is the
// set still live at the end of the list (for propagation into the
// statements after the enclosing block).
func (s *poolScanner) scanList(list []ast.Stmt, live []*pooledPut) []*pooledPut {
	for _, st := range list {
		// 1. Uses of already-pooled values in this statement.
		for _, put := range live {
			if put.reported {
				continue
			}
			if pos, ok := s.usesObject(st, put.obj); ok {
				put.reported = true
				s.diags = append(s.diags, s.p.diag(pos, "poolsafe",
					"%s is used here but was returned to the pool at %s (%s); the pool may already have recycled it",
					put.obj.Name(), s.p.Position(put.pos), put.call))
			}
		}
		// 2. A statement flow cannot fall through ends this path: puts
		// before a return/panic/Fatal never reach the statements after
		// the enclosing block on THIS path. (break/continue/goto keep
		// their puts: control continues at code that is still lexically
		// after the put.)
		if s.terminates(st) {
			return nil
		}
		// 3. Reassignment kills tracking: the name aliases a fresh value.
		live = s.filterKilled(st, live)
		// 4. New puts in this statement (directly or in nested blocks).
		live = s.scanStmt(st, live)
	}
	return live
}

// terminates reports whether flow cannot continue past the statement:
// return, panic, os.Exit, runtime.Goexit, or a testing Fatal/Skip.
func (s *poolScanner) terminates(st ast.Stmt) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		_, isRet := st.(*ast.ReturnStmt)
		return isRet
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := s.p.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
			return true
		}
	}
	fn := s.p.calleeFunc(call)
	if fn == nil {
		return false
	}
	if isFunc(fn, "os", "Exit") || isFunc(fn, "runtime", "Goexit") {
		return true
	}
	if recv := recvNamed(fn); recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "testing" {
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// scanStmt handles one statement's own put detection and recurses
// into nested blocks, merging the puts that escape them.
func (s *poolScanner) scanStmt(st ast.Stmt, live []*pooledPut) []*pooledPut {
	switch n := st.(type) {
	case *ast.ExprStmt:
		live = s.putExpr(n.X, live)
	case *ast.AssignStmt:
		// err := c.PutData(...): a consuming call that also returns.
		for _, rhs := range n.Rhs {
			live = s.putExpr(rhs, live)
		}
	case *ast.DeferStmt:
		// A deferred put runs at function exit: every lexical use
		// precedes it. Exempt by design.
	case *ast.BlockStmt:
		live = s.scanList(n.List, live)
	case *ast.LabeledStmt:
		live = s.scanStmt(n.Stmt, live)
	case *ast.IfStmt:
		if n.Init != nil {
			live = s.scanStmt(n.Init, live)
		}
		out := s.branchJoin(live,
			func(in []*pooledPut) []*pooledPut { return s.scanList(n.Body.List, in) },
			func(in []*pooledPut) []*pooledPut {
				if n.Else != nil {
					return s.scanStmt(n.Else, in)
				}
				return in
			})
		// A branch that cannot fall through (put-then-return) keeps
		// its puts out of the join: scanList already checked the
		// statements inside the branch.
		live = out
	case *ast.ForStmt:
		live = s.scanList(n.Body.List, live)
	case *ast.RangeStmt:
		live = s.scanList(n.Body.List, live)
	case *ast.SwitchStmt:
		live = s.caseBodies(n.Body.List, live)
	case *ast.TypeSwitchStmt:
		live = s.caseBodies(n.Body.List, live)
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				live = s.branchJoin(live, func(in []*pooledPut) []*pooledPut { return s.scanList(cc.Body, in) })
			}
		}
	}
	return live
}

// branchJoin runs each branch over a copy of the incoming live set
// and unions the survivors. A branch ending in return/panic reports
// its interior uses during scanList; whatever it returns is still
// unioned (over-approximation is fine: a reported put reports once).
func (s *poolScanner) branchJoin(live []*pooledPut, branches ...func([]*pooledPut) []*pooledPut) []*pooledPut {
	seen := make(map[*pooledPut]bool, len(live))
	var out []*pooledPut
	add := func(puts []*pooledPut) {
		for _, p := range puts {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	for _, br := range branches {
		in := make([]*pooledPut, len(live))
		copy(in, live)
		add(br(in))
	}
	return out
}

func (s *poolScanner) caseBodies(list []ast.Stmt, live []*pooledPut) []*pooledPut {
	var branches []func([]*pooledPut) []*pooledPut
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok {
			body := cc.Body
			branches = append(branches, func(in []*pooledPut) []*pooledPut { return s.scanList(body, in) })
		}
	}
	if len(branches) == 0 {
		return live
	}
	return s.branchJoin(live, branches...)
}

// putExpr adds the put e makes, if e is a pool-consuming call.
func (s *poolScanner) putExpr(e ast.Expr, live []*pooledPut) []*pooledPut {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if put := s.putCall(call); put != nil {
			live = append(live, put)
		}
	}
	return live
}

// connPutDataElem returns the argument a call passes as the elem
// parameter of a Conn's PutData: a method of that name, on the
// package's Conn interface or a type implementing it, with a slice
// parameter called elem.
func (s *poolScanner) connPutDataElem(fn *types.Func, call *ast.CallExpr) ast.Expr {
	if fn.Name() != "PutData" {
		return nil
	}
	tn, _ := s.p.Pkg.Scope().Lookup("Conn").(*types.TypeName)
	if tn == nil {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	sig := fn.Type().(*types.Signature)
	if iface == nil || sig.Recv() == nil {
		return nil
	}
	if recv := sig.Recv().Type(); !types.Implements(recv, iface) && !types.Implements(types.NewPointer(recv), iface) {
		return nil
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if par := sig.Params().At(i); par.Name() == "elem" {
			if _, isSlice := par.Type().Underlying().(*types.Slice); isSlice {
				return call.Args[i]
			}
		}
	}
	return nil
}

// putCall recognizes the pool-consuming calls and returns the pooled
// variable, if it is a plain identifier we can track.
func (s *poolScanner) putCall(call *ast.CallExpr) *pooledPut {
	fn := s.p.calleeFunc(call)
	if fn == nil {
		return nil
	}
	var valueExpr ast.Expr
	var what string
	recv := recvNamed(fn)
	switch {
	case recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "sync" &&
		recv.Obj().Name() == "Pool" && fn.Name() == "Put" && len(call.Args) == 1:
		valueExpr = call.Args[0]
		what = "sync.Pool.Put"
	case recv != nil && fn.Pkg() == s.p.Pkg && isReleaseName(fn.Name()):
		// sc.release(pool): the receiver is the pooled value.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			valueExpr = sel.X
			what = recv.Obj().Name() + "." + fn.Name()
		}
	case recv == nil && fn.Pkg() == s.p.Pkg && strings.HasPrefix(fn.Name(), "put") && len(call.Args) >= 1:
		valueExpr = call.Args[0]
		what = fn.Name()
	default:
		if valueExpr = s.connPutDataElem(fn, call); valueExpr == nil {
			return nil
		}
		what = "Conn.PutData"
	}
	id, ok := ast.Unparen(valueExpr).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := s.p.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return nil
	}
	return &pooledPut{obj: obj, call: what, pos: call.Pos()}
}

func isReleaseName(name string) bool {
	switch name {
	case "release", "unref", "decref", "decRef", "recycle", "free":
		return true
	}
	return false
}

// usesObject reports whether the statement references obj, without
// descending into statements of nested blocks (those are scanned by
// the recursion with correct ordering) — but descending into
// expressions, func literals included: a closure capturing a pooled
// value runs no earlier than its creation, which is already after
// the put.
func (s *poolScanner) usesObject(st ast.Stmt, obj types.Object) (token.Pos, bool) {
	var found token.Pos
	ok := false
	check := func(n ast.Node) {
		if n == nil || ok {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if ok {
				return false
			}
			if id, isIdent := m.(*ast.Ident); isIdent && s.p.Info.Uses[id] == obj {
				found, ok = id.Pos(), true
				return false
			}
			return true
		})
	}
	// A plain `x = fresh` overwrites the name without reading the
	// pooled value: its bare-identifier LHS is a kill, not a use.
	// Everything else in the assignment (the RHS, and any LHS like
	// m[x] or x.f that evaluates x) still counts.
	if as, isAssign := st.(*ast.AssignStmt); isAssign {
		for _, rhs := range as.Rhs {
			check(rhs)
		}
		for _, lhs := range as.Lhs {
			if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
				check(lhs)
			}
		}
		return found, ok
	}
	check(st)
	return found, ok
}

// filterKilled drops puts whose variable this statement reassigns.
func (s *poolScanner) filterKilled(st ast.Stmt, live []*pooledPut) []*pooledPut {
	if len(live) == 0 {
		return live
	}
	killed := make(map[types.Object]bool)
	switch n := st.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := s.p.Info.Uses[id]; obj != nil {
					killed[obj] = true
				}
				if obj := s.p.Info.Defs[id]; obj != nil {
					killed[obj] = true
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id != nil {
				if obj := s.p.Info.Uses[id]; obj != nil {
					killed[obj] = true
				}
			}
		}
	}
	if len(killed) == 0 {
		return live
	}
	out := live[:0]
	for _, p := range live {
		if !killed[p.obj] {
			out = append(out, p)
		}
	}
	return out
}
