package lint

import (
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
)

// A lint:ignore directive:
//
//	//lint:ignore <rule> <reason>
//
// suppresses diagnostics of <rule> on the directive's own line (a
// trailing comment) and on the line directly below it (a comment on
// its own line above the flagged statement). The rule name must be a
// registered analyzer and the reason must be non-empty: a suppression
// is a reviewed decision, and the reason is where the review lives.
// Malformed directives are reported under rule "lint" and cannot
// themselves be suppressed.
type suppression struct {
	rule   string
	reason string
	file   string
	line   int // the directive's line; also covers line+1
}

// suppressions scans a package's comments for lint:ignore directives,
// returning the valid ones plus diagnostics for the malformed ones.
func suppressions(p *Package, known map[string]bool) ([]suppression, []Diagnostic) {
	var sups []suppression
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := p.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bad = append(bad, p.diag(c.Pos(), "lint",
						"lint:ignore needs a rule name and a reason: //lint:ignore <rule> <reason>"))
					continue
				}
				rule := fields[0]
				if !known[rule] {
					bad = append(bad, p.diag(c.Pos(), "lint",
						"lint:ignore names unknown rule %q (known: %s)", rule, strings.Join(Rules(), ", ")))
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, p.diag(c.Pos(), "lint",
						"lint:ignore %s needs a non-empty reason", rule))
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), rule))
				sups = append(sups, suppression{rule: rule, reason: reason, file: pos.Filename, line: pos.Line})
			}
		}
	}
	return sups, bad
}

// Directives lists the well-formed lint:ignore directives of pkgs, one
// "file: rule: reason" line each, file relative to root, sorted. `make
// lint` compares the list with testdata/directives.txt, so a new
// suppression shows up as a reviewed diff of that file.
func Directives(pkgs []*Package, root string) []string {
	var lines []string
	for _, p := range pkgs {
		sups, _ := suppressions(p, registered())
		for _, s := range sups {
			file := s.file
			if rel, err := filepath.Rel(root, file); err == nil {
				file = filepath.ToSlash(rel)
			}
			lines = append(lines, file+": "+s.rule+": "+s.reason)
		}
	}
	sort.Strings(lines)
	return lines
}

// filterSuppressed drops diagnostics covered by a directive. The
// "lint" rule (directive validation) is never suppressible.
func filterSuppressed(diags []Diagnostic, sups []suppression) []Diagnostic {
	if len(sups) == 0 {
		return diags
	}
	covered := func(d Diagnostic) bool {
		for _, s := range sups {
			if s.rule == d.Rule && s.file == d.File && (s.line == d.Line || s.line+1 == d.Line) {
				return true
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if d.Rule != "lint" && covered(d) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// inspect walks every file of the package with fn; fn returning false
// prunes the subtree (ast.Inspect semantics).
func (p *Package) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
