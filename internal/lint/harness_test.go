package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture typechecks a single directory as a standalone package
// (stdlib imports only), its _test.go files included.
func loadFixture(dir string) (*Package, error) {
	disableCgo()
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	testFile := make(map[*ast.File]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if strings.HasSuffix(e.Name(), "_test.go") {
			testFile[f] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
	src := importer.ForCompiler(fset, "source", nil)
	tpkg, err := check("fixture/"+filepath.Base(dir), fset, files, src, info)
	if err != nil {
		return nil, err
	}
	r := newReach()
	for _, f := range files {
		r.addFile(info, f, testFile[f])
	}
	r.addImplementers(tpkg)
	return &Package{
		Path:     "fixture/" + filepath.Base(dir),
		Dir:      dir,
		Fset:     fset,
		Files:    files,
		TestFile: testFile,
		Pkg:      tpkg,
		Info:     info,
		reach:    r,
	}, nil
}

// The golden-fixture harness: each analyzer has a package under
// testdata/src/<rule>/ whose comments carry expectations in the form
//
//	// want `regexp`
//
// A want comment must be matched by at least one diagnostic on its own
// line (the regexp is applied to "rule: message"), and every
// diagnostic must be claimed by some want — so a fixture pins both the
// fired and the non-fired cases. Gutting an analyzer's implementation
// leaves its wants unmatched and fails the test.

var wantRe = regexp.MustCompile("// want `([^`]*)`")

type wantComment struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := loadFixture(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("loadFixture(%s): %v", fixture, err)
	}

	var wants []*wantComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fixture, m[1], err)
				}
				pos := pkg.Position(c.Pos())
				wants = append(wants, &wantComment{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments; it cannot pin its analyzer", fixture)
	}

	for _, d := range Run([]*Package{pkg}, analyzers) {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Rule+": "+d.Message) {
				w.hits++
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: want %q, but no diagnostic fired", filepath.Base(w.file), w.line, w.re)
		}
	}
}

func TestAtomicMixFixture(t *testing.T)  { runFixture(t, "atomicmix", AtomicMix) }
func TestLockHoldFixture(t *testing.T)   { runFixture(t, "lockhold", LockHold) }
func TestErrWrapFixture(t *testing.T)    { runFixture(t, "errwrap", ErrWrap) }
func TestEpochFrameFixture(t *testing.T) { runFixture(t, "epochframe", EpochFrame) }
func TestPoolSafeFixture(t *testing.T)   { runFixture(t, "poolsafe", PoolSafe) }
func TestTestOnlyFixture(t *testing.T)   { runFixture(t, "testonly", TestOnly) }

// TestSuppressFixture runs the full suite over a fixture whose
// directives suppress two of four identical findings: the two
// suppressed lines must stay silent, the uncovered and
// wrong-rule-covered lines must still fire. Run with errwrap alone
// (sodavet -rules errwrap), the directive naming epochframe is still
// well formed: a directive may name any registered rule.
func TestSuppressFixture(t *testing.T) {
	runFixture(t, "suppress", All...)
	runFixture(t, "suppress", ErrWrap)
}
