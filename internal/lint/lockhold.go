package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHold flags blocking operations performed while holding a
// sync.Mutex or sync.RWMutex that was acquired in the same function
// with no intervening Unlock: channel sends and receives, selects
// with no default case, ctx.Done() waits, net I/O, time.Sleep,
// WaitGroup/Cond waits, (*os.File).Sync, and WAL append/fsync-class
// calls (methods named append/Append/sync/Sync/syncTo on types whose
// name mentions the WAL). A blocked holder stalls every other path
// that needs the lock — at best a latency cliff, at worst a deadlock
// when the unblocking party needs the same lock. `defer Unlock` paths
// are analyzed too: the lock stays held across everything after the
// defer. A lock taken by TryLock/TryRLock in an if condition is held
// where the condition says it was acquired: inside `if mu.TryLock() {`,
// and after `if !mu.TryLock() { return }` — through !, && and ||, a lock
// the outcome only may have acquired counting as held. A try whose
// result goes anywhere but an if condition is not modelled.
//
// Deliberately NOT flagged: a send or receive that is a case of a
// select with a default clause (non-blocking by construction — the
// coalescing cap-1 wake channels from PR 7 depend on this pattern),
// and anything inside a nested func literal (a spawned goroutine does
// not hold the caller's lock, and defers run at exit).
//
// Invariant lineage: PR 8's WAL-append-before-apply happens under the
// register lock BY DESIGN — that one pattern carries a lint:ignore
// with the ordering argument as its reason; everything else under a
// lock must stay non-blocking.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking operation (channel, ctx wait, net I/O, fsync) while holding a mutex acquired in the same function",
	Run:  runLockHold,
}

type lockSet map[string]token.Pos // lock expression -> acquisition site

func (ls lockSet) clone() lockSet {
	out := make(lockSet, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

func (ls lockSet) names() string {
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func runLockHold(p *Package) []Diagnostic {
	s := &lockScanner{p: p}
	p.inspect(func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				s.stmts(fn.Body.List, lockSet{})
			}
		case *ast.FuncLit:
			s.stmts(fn.Body.List, lockSet{})
		}
		return true // func lits are scanned as their own functions
	})
	return s.diags
}

type lockScanner struct {
	p     *Package
	diags []Diagnostic
}

// mutexMethod resolves a call to a sync.Mutex/RWMutex Lock-family
// method, returning the lock's identity (the receiver expression) and
// the method name.
func (s *lockScanner) mutexMethod(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := s.p.Info.Uses[sel.Sel].(*types.Func)
	recv := recvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// stmts scans a statement list under the given held-lock state and
// returns the state at its end, or terminated=true if every path
// through the list returns.
func (s *lockScanner) stmts(list []ast.Stmt, held lockSet) (lockSet, bool) {
	for _, st := range list {
		var term bool
		held, term = s.stmt(st, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (s *lockScanner) stmt(st ast.Stmt, held lockSet) (lockSet, bool) {
	switch n := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if key, method, ok := s.mutexMethod(call); ok {
				switch method {
				case "Lock", "RLock":
					held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return held, false
			}
		}
		s.exprs(held, n.X)
	case *ast.SendStmt:
		if len(held) > 0 {
			s.report(n.Pos(), held, "channel send")
		}
		s.exprs(held, n.Chan, n.Value)
	case *ast.AssignStmt:
		s.exprs(held, n.Rhs...)
		s.exprs(held, n.Lhs...)
	case *ast.DeclStmt:
		ast.Inspect(n, func(m ast.Node) bool { return s.inspectHazard(held, m) })
	case *ast.IncDecStmt:
		s.exprs(held, n.X)
	case *ast.ReturnStmt:
		s.exprs(held, n.Results...)
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto: stop tracking this path rather than
		// model label targets.
		return held, true
	case *ast.DeferStmt:
		// defer mu.Unlock() does not release here — the lock stays
		// held for the rest of the function. Argument expressions are
		// evaluated now; the call body runs at exit.
		s.exprs(held, n.Call.Args...)
	case *ast.GoStmt:
		// The goroutine does not hold our locks; only the argument
		// evaluation happens here.
		s.exprs(held, n.Call.Args...)
	case *ast.BlockStmt:
		return s.stmts(n.List, held)
	case *ast.LabeledStmt:
		return s.stmt(n.Stmt, held)
	case *ast.IfStmt:
		if n.Init != nil {
			held, _ = s.stmt(n.Init, held)
		}
		s.exprs(held, n.Cond)
		onTrue, onFalse := s.tryLocks(n.Cond)
		thenHeld, thenTerm := s.stmts(n.Body.List, union(held, onTrue))
		elseHeld, elseTerm := union(held, onFalse), false
		if n.Else != nil {
			elseHeld, elseTerm = s.stmt(n.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return union(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		if n.Init != nil {
			held, _ = s.stmt(n.Init, held)
		}
		s.exprs(held, n.Cond)
		bodyHeld, _ := s.stmts(n.Body.List, held.clone())
		if n.Post != nil {
			s.stmt(n.Post, bodyHeld.clone())
		}
		return union(held, bodyHeld), false
	case *ast.RangeStmt:
		s.exprs(held, n.X)
		bodyHeld, _ := s.stmts(n.Body.List, held.clone())
		return union(held, bodyHeld), false
	case *ast.SwitchStmt:
		if n.Init != nil {
			held, _ = s.stmt(n.Init, held)
		}
		s.exprs(held, n.Tag)
		return s.clauses(n.Body.List, held)
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			held, _ = s.stmt(n.Init, held)
		}
		return s.clauses(n.Body.List, held)
	case *ast.SelectStmt:
		return s.selectStmt(n, held)
	}
	return held, false
}

// tryLocks returns the locks a condition's TryLock/TryRLock calls may
// have acquired when it comes out true, and when it comes out false.
func (s *lockScanner) tryLocks(cond ast.Expr) (onTrue, onFalse lockSet) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		if key, method, ok := s.mutexMethod(e); ok && (method == "TryLock" || method == "TryRLock") {
			return lockSet{key: e.Pos()}, nil
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			onTrue, onFalse = s.tryLocks(e.X)
			return onFalse, onTrue
		}
	case *ast.BinaryExpr:
		xTrue, xFalse := s.tryLocks(e.X)
		yTrue, yFalse := s.tryLocks(e.Y)
		switch e.Op {
		case token.LAND: // false: x false, or x true and then y false
			return union(xTrue, yTrue), union(xFalse, union(xTrue, yFalse))
		case token.LOR: // true: x true, or x false and then y true
			return union(xTrue, union(xFalse, yTrue)), union(xFalse, yFalse)
		}
	}
	return nil, nil
}

// clauses scans switch/type-switch case bodies, unioning the
// resulting lock states.
func (s *lockScanner) clauses(list []ast.Stmt, held lockSet) (lockSet, bool) {
	out := held.clone()
	allTerm := len(list) > 0
	for _, c := range list {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		s.exprs(held, cc.List...)
		h, term := s.stmts(cc.Body, held.clone())
		if !term {
			out = union(out, h)
			allTerm = false
		}
	}
	return out, allTerm && hasDefaultCase(list)
}

func hasDefaultCase(list []ast.Stmt) bool {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// selectStmt: with a default clause the comm cases are non-blocking
// (the sanctioned wake-channel pattern); without one the select
// blocks until some case fires.
func (s *lockScanner) selectStmt(n *ast.SelectStmt, held lockSet) (lockSet, bool) {
	hasDefault := false
	for _, c := range n.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault && len(held) > 0 {
		s.report(n.Pos(), held, "select with no default case")
	}
	out := make(lockSet)
	for _, c := range n.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		h := held.clone()
		if cc.Comm != nil {
			// The comm statement's nested expressions (e.g. the value
			// being sent) still get hazard-scanned, but the send or
			// receive itself was judged above.
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				s.exprs(h, comm.Chan, comm.Value)
			case *ast.AssignStmt:
				// v := <-ch: the receive IS the judged comm op; scan
				// only its operand or it double-reports.
				for _, r := range comm.Rhs {
					if recv, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
						s.exprs(h, recv.X)
					} else {
						s.exprs(h, r)
					}
				}
			case *ast.ExprStmt:
				if recv, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok {
					s.exprs(h, recv.X)
				}
			}
		}
		bodyHeld, term := s.stmts(cc.Body, h)
		if !term {
			out = union(out, bodyHeld)
		}
	}
	return union(held, out), false
}

// exprs hazard-scans expressions evaluated at this point in the flow.
func (s *lockScanner) exprs(held lockSet, list ...ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(m ast.Node) bool { return s.inspectHazard(held, m) })
	}
}

// inspectHazard classifies one expression node; returns false to
// prune the walk (function literals run in another frame or at exit).
func (s *lockScanner) inspectHazard(held lockSet, m ast.Node) bool {
	if len(held) == 0 {
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	}
	switch e := m.(type) {
	case *ast.FuncLit:
		return false
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if s.isCtxDone(e.X) {
				s.report(e.Pos(), held, "wait on ctx.Done()")
			} else {
				s.report(e.Pos(), held, "blocking channel receive")
			}
		}
	case *ast.CallExpr:
		if what := s.blockingCall(e); what != "" {
			s.report(e.Pos(), held, what)
		}
	}
	return true
}

// isCtxDone reports whether e is a call to context.Context.Done.
func (s *lockScanner) isCtxDone(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := s.p.calleeFunc(call)
	return fn != nil && fn.Name() == "Done" && typeIsFrom(fn.Type().(*types.Signature).Recv().Type(), "context")
}

// blockingCall classifies calls that block or touch stable storage.
func (s *lockScanner) blockingCall(call *ast.CallExpr) string {
	fn := s.p.calleeFunc(call)
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := recvNamed(fn); recv != nil {
		recvPkg := ""
		if recv.Obj().Pkg() != nil {
			recvPkg = recv.Obj().Pkg().Path()
		}
		switch {
		case recvPkg == "net":
			// Close, deadline setters, and address getters are
			// non-blocking control operations, not I/O waits: holding
			// a lock across them is fine (teardown paths routinely
			// close a conn under the state lock that owns it).
			switch fn.Name() {
			case "Close", "SetDeadline", "SetReadDeadline", "SetWriteDeadline",
				"LocalAddr", "RemoteAddr", "Addr", "CloseRead", "CloseWrite":
				return ""
			}
			return "net I/O (" + recv.Obj().Name() + "." + fn.Name() + ")"
		case recvPkg == "os" && recv.Obj().Name() == "File" && fn.Name() == "Sync":
			return "fsync ((*os.File).Sync)"
		case recvPkg == "sync" && fn.Name() == "Wait":
			return recv.Obj().Name() + ".Wait"
		case strings.Contains(strings.ToLower(recv.Obj().Name()), "wal") && isWALMutator(fn.Name()):
			return "WAL " + fn.Name() + " (append/fsync class)"
		}
		return ""
	}
	switch {
	case pkg == "net":
		return "net I/O (net." + fn.Name() + ")"
	case pkg == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	}
	return ""
}

func isWALMutator(name string) bool {
	switch name {
	case "append", "Append", "sync", "Sync", "syncTo", "SyncTo", "rotate", "Rotate":
		return true
	}
	return false
}

func (s *lockScanner) report(pos token.Pos, held lockSet, what string) {
	s.diags = append(s.diags, s.p.diag(pos, "lockhold",
		"%s while holding %s (acquired in this function; no intervening Unlock)", what, held.names()))
}

func union(a, b lockSet) lockSet {
	out := a.clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}
