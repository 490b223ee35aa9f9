// Package lint is sodavet's analyzer driver: a stdlib-only
// (go/parser, go/ast, go/types — no golang.org/x/tools) static
// analysis framework that loads and typechecks every package in the
// module and runs project-specific analyzers over them.
//
// Each analyzer encodes one invariant the SODA reproduction relies on
// for its atomicity/durability arguments but that the compiler cannot
// check: atomic-vs-plain field access discipline (atomicmix), no
// blocking operations under a held mutex (lockhold), %w-wrapping and
// errors.Is testability of typed sentinels (errwrap), epoch threading
// through wire-frame encoders (epochframe), no use of a value after it
// was returned to a pool (poolsafe), and no func, method, const or var
// that only tests reference (testonly). testonly counts references
// across the whole module, bench/ and cmd/ included, and keeps silent
// on a method that satisfies an interface the module uses (promoted
// through embedding or not), on Error, String, Unwrap, Is and As with
// their standard signatures, and on a name an Example* function uses.
//
// Diagnostics can be suppressed per-site with
//
//	//lint:ignore <rule> <reason>
//
// where <rule> must name a registered analyzer and <reason> must be
// non-empty; the directive covers its own source line and the line
// immediately below it. Malformed directives are themselves
// diagnostics (rule "lint") and cannot be suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned for file:line:col printing
// and for the -json mode.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects a typechecked package and
// returns its findings; it must not mutate the package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Package) []Diagnostic
}

// All is the registered analyzer suite, in reporting order.
var All = []*Analyzer{
	AtomicMix,
	LockHold,
	ErrWrap,
	EpochFrame,
	PoolSafe,
	TestOnly,
}

// Rules returns the registered rule names (the valid targets of a
// lint:ignore directive).
func Rules() []string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return names
}

// Package is one loaded, typechecked package: the unit every
// analyzer operates on.
type Package struct {
	Path     string // import path ("repro/internal/soda")
	Dir      string // absolute directory
	Fset     *token.FileSet
	Files    []*ast.File        // non-test files first, then in-package _test.go files
	TestFile map[*ast.File]bool // which Files entries are _test.go files
	Pkg      *types.Package
	Info     *types.Info

	reach *reach // what the whole load references, for testonly
}

// Position resolves a token.Pos against the package's FileSet.
func (p *Package) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// diag builds a Diagnostic at pos.
func (p *Package) diag(pos token.Pos, rule, format string, args ...any) Diagnostic {
	tp := p.Fset.Position(pos)
	return Diagnostic{
		File:    tp.Filename,
		Line:    tp.Line,
		Col:     tp.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}

// registered is the set of rule names a lint:ignore directive may name:
// every analyzer in All, whichever of them a run selects.
func registered() map[string]bool {
	known := make(map[string]bool, len(All))
	for _, a := range All {
		known[a.Name] = true
	}
	return known
}

// Run executes the analyzers over every package, applies lint:ignore
// suppression, validates the directives themselves, and returns the
// surviving findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := registered()
	var out []Diagnostic
	for _, p := range pkgs {
		var pd []Diagnostic
		for _, a := range analyzers {
			pd = append(pd, a.Run(p)...)
		}
		dirs, bad := suppressions(p, known)
		pd = append(filterSuppressed(pd, dirs), bad...)
		out = append(out, pd...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}
