package lint

import (
	"go/ast"
	"go/types"
)

// EpochFrame enforces the epoch-threading invariant from the online
// reconfiguration work (PR 9): every wire frame carries the
// configuration epoch, and quorums are assembled within ONE epoch by
// construction because the epoch is stamped where the conn is built
// and threaded through every encoder. A literal-zero epoch argument
// silently mints a frame from the pre-reconfiguration world: servers
// past epoch 0 NACK it, and worse, a zero-epoch frame accepted by a
// lagging server could let a quorum span a configuration flip — the
// exact situation the epoch machinery exists to make impossible.
//
// The rule: the literal constant 0 must not be passed for a parameter
// named "epoch", nor written to a struct field named "epoch" — in a
// composite literal (request{epoch: 0}) or by assignment (r.epoch = 0);
// the wire codec carries the epoch in its request and response values.
// wire_test.go is exempt (frame-shape tests pin the encoding at epoch
// zero on purpose); anywhere else a genuine epoch-zero context (the seed
// configuration) should name it via a constant or thread the real
// value, or carry a lint:ignore with the argument.
var EpochFrame = &Analyzer{
	Name: "epochframe",
	Doc:  "no literal-zero epoch arguments or fields outside wire_test.go: thread the configuration epoch",
	Run:  runEpochFrame,
}

func runEpochFrame(p *Package) []Diagnostic {
	var diags []Diagnostic
	// check reports value when it is the literal 0 standing for an epoch.
	check := func(value ast.Expr, what string) {
		lit, ok := ast.Unparen(value).(*ast.BasicLit)
		if !ok || lit.Value != "0" || p.fileBase(value) == "wire_test.go" {
			return
		}
		diags = append(diags, p.diag(lit.Pos(), "epochframe",
			"literal-zero epoch %s; thread the configuration epoch (frames minted at epoch 0 cannot survive a reconfiguration)", what))
	}
	epochField := func(id *ast.Ident) bool {
		v, ok := p.Info.Uses[id].(*types.Var)
		return ok && v.IsField() && v.Name() == "epoch"
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := p.calleeFunc(n)
			if fn == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			for i := 0; i < sig.Params().Len() && i < len(n.Args); i++ {
				if sig.Params().At(i).Name() == "epoch" {
					check(n.Args[i], "passed to "+fn.Name())
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok && epochField(id) {
				check(n.Value, "in a composite literal")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && len(n.Rhs) == len(n.Lhs) && epochField(sel.Sel) {
					check(n.Rhs[i], "assigned to "+sel.Sel.Name)
				}
			}
		}
		return true
	})
	return diags
}
