package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader is stdlib-only by construction: module packages are
// parsed with go/parser and typechecked with go/types, module-internal
// imports are resolved against the packages we already typechecked,
// and standard-library imports are typechecked from $GOROOT/src via
// go/importer's source importer — no export data, no network, no
// golang.org/x/tools.

// disableCgo forces the pure-Go variants of stdlib packages (net, os)
// so the source importer never needs to invoke the cgo tool. Done
// once, process-wide: build.Default is the context both ImportDir and
// the source importer consult.
var disableCgo = sync.OnceFunc(func() { build.Default.CgoEnabled = false })

// pkgNode is one module package before typechecking.
type pkgNode struct {
	importPath string
	dir        string
	goFiles    []string // non-test, build-constraint-filtered
	testFiles  []string // in-package _test.go files
	xtestFiles []string // external test package (package foo_test) files
	imports    []string // non-test imports
}

// LoadModule loads every package of the module rooted at root (the
// directory containing go.mod) and returns typechecked Packages for
// the ones selected by patterns. Patterns are "./..." (everything,
// also the default), "./dir/..." (subtree), or "./dir" (one package),
// cleaned as go vet cleans them. A selected package comes with its
// in-package _test.go files, and its external test package (package
// foo_test) comes as a Package of its own, its path suffixed "_test".
// Every
// package is loaded, selected or not, so typechecking is complete and
// testonly counts the references of the whole module. The walk does
// not stop at a nested go.mod: bench/, a module of its own that
// replaces this one, loads as repro/bench, and its uses count.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	disableCgo()
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	nodes := make(map[string]*pkgNode) // import path -> node
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return fmt.Errorf("lint: scanning %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		nodes[ip] = &pkgNode{
			importPath: ip,
			dir:        path,
			goFiles:    bp.GoFiles,
			testFiles:  bp.TestGoFiles,
			xtestFiles: bp.XTestGoFiles,
			imports:    bp.Imports,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("lint: no Go packages under %s", root)
	}

	selected, err := selectPackages(nodes, modPath, patterns)
	if err != nil {
		return nil, err
	}

	order, err := topoOrder(nodes, modPath)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)

	// Parse every file once; both typecheck passes reuse the ASTs.
	asts := make(map[string]*ast.File)
	parseAll := func(dir string, names []string) ([]*ast.File, error) {
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			full := filepath.Join(dir, name)
			f, ok := asts[full]
			if !ok {
				var err error
				f, err = parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				asts[full] = f
			}
			files = append(files, f)
		}
		return files, nil
	}

	// Pass 1: typecheck non-test files in dependency order, building
	// the registry module-internal imports resolve against, and
	// recording what non-test code references.
	reg := make(map[string]*types.Package)
	imp := &moduleImporter{reg: reg, src: src}
	r := newReach()
	for _, ip := range order {
		n := nodes[ip]
		files, err := parseAll(n.dir, n.goFiles)
		if err != nil {
			return nil, err
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Uses: make(map[*ast.Ident]types.Object)}
		tpkg, err := check(ip, fset, files, imp, info)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			r.addFile(info, f, false)
		}
		reg[ip] = tpkg
	}
	for _, ip := range order {
		r.addImplementers(reg[ip])
	}

	// Pass 2: re-typecheck each package with its in-package test files
	// included, then its external test package against that, capturing
	// full type info and recording what the test files reference. Every
	// package's tests are checked, as an Example in any of them counts;
	// only the selected packages are returned.
	withTests := func(ip, dir string, goFiles, testFiles []string, imp types.Importer) (*Package, error) {
		files, err := parseAll(dir, append(append([]string{}, goFiles...), testFiles...))
		if err != nil {
			return nil, err
		}
		info := newInfo()
		tpkg, err := check(ip, fset, files, imp, info)
		if err != nil {
			return nil, err
		}
		testFile := make(map[*ast.File]bool, len(testFiles))
		for _, f := range files[len(goFiles):] {
			testFile[f] = true
			r.addFile(info, f, true)
		}
		return &Package{Path: ip, Dir: dir, Fset: fset, Files: files, TestFile: testFile, Pkg: tpkg, Info: info, reach: r}, nil
	}
	var pkgs []*Package
	for _, ip := range order {
		n := nodes[ip]
		if !selected[ip] && len(n.testFiles) == 0 && len(n.xtestFiles) == 0 {
			continue
		}
		pkg, err := withTests(ip, n.dir, n.goFiles, n.testFiles, imp)
		if err != nil {
			return nil, err
		}
		if selected[ip] {
			pkgs = append(pkgs, pkg)
		}
		if len(n.xtestFiles) == 0 {
			continue
		}
		ximp := &moduleImporter{reg: map[string]*types.Package{ip: pkg.Pkg}, src: imp}
		xpkg, err := withTests(ip+"_test", n.dir, nil, n.xtestFiles, ximp)
		if err != nil {
			return nil, err
		}
		if selected[ip] {
			pkgs = append(pkgs, xpkg)
		}
	}
	return pkgs, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// check typechecks one package, collecting every type error rather
// than stopping at the first, and failing if any occurred: analyzers
// must only ever see packages whose type information is complete.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		if len(errs) > 5 {
			errs = errs[:5]
		}
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("lint: typechecking %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	return tpkg, nil
}

// moduleImporter resolves module-internal imports from the pass-1
// registry and everything else from the stdlib source importer.
type moduleImporter struct {
	reg map[string]*types.Package
	src types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.reg[path]; ok {
		return p, nil
	}
	return m.src.Import(path)
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			mp = strings.Trim(mp, `"`)
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// selectPackages resolves CLI patterns to a set of import paths. A
// pattern is cleaned first, as go vet cleans it: "./internal/soda/" and
// "internal/soda" name the same package.
func selectPackages(nodes map[string]*pkgNode, modPath string, patterns []string) (map[string]bool, error) {
	sel := make(map[string]bool, len(nodes))
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, orig := range patterns {
		pat := path.Clean(filepath.ToSlash(orig))
		ellipsis := pat == "..." || strings.HasSuffix(pat, "/...")
		if ellipsis {
			pat = path.Dir(pat)
		}
		ip := modPath
		if pat != "." && pat != modPath {
			if strings.HasPrefix(pat, modPath+"/") {
				ip = pat
			} else {
				ip = modPath + "/" + pat
			}
		}
		matched := false
		for candidate := range nodes {
			if candidate == ip || (ellipsis && (ip == modPath || strings.HasPrefix(candidate, ip+"/"))) {
				sel[candidate] = true
				matched = true
			}
		}
		if !matched && !ellipsis {
			return nil, fmt.Errorf("lint: pattern %q matches no package", orig)
		}
	}
	return sel, nil
}

// topoOrder returns every node in dependency-before-dependent order,
// considering only module-internal (non-test) imports.
func topoOrder(nodes map[string]*pkgNode, modPath string) ([]string, error) {
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(ip string, chain []string) error
	visit = func(ip string, chain []string) error {
		switch state[ip] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, ip), " -> "))
		}
		state[ip] = 1
		n := nodes[ip]
		deps := append([]string{}, n.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
				if nodes[dep] == nil {
					return fmt.Errorf("lint: %s imports %s, which is not in the module", ip, dep)
				}
				if err := visit(dep, append(chain, ip)); err != nil {
					return err
				}
			}
		}
		state[ip] = 2
		order = append(order, ip)
		return nil
	}
	paths := make([]string, 0, len(nodes))
	for ip := range nodes {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if err := visit(ip, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}
