package soda

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/exported.txt from the package's exported names")

// TestExportedSurface pins the package's exported API: every exported
// top-level name, method and struct field of its non-test files, one per
// line and sorted, must match testdata/exported.txt. A new option or
// exported name is then a one-line diff of that file; `go test -run
// ExportedSurface -update` rewrites it.
func TestExportedSurface(t *testing.T) {
	got := strings.Join(exportedSurface(t, "."), "\n") + "\n"
	golden := filepath.Join("testdata", "exported.txt")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, l := range gl {
			if !slices.Contains(wl, l) {
				t.Errorf("exported but not in %s: %s", golden, l)
			}
		}
		for _, l := range wl {
			if !slices.Contains(gl, l) {
				t.Errorf("in %s but no longer exported: %s", golden, l)
			}
		}
		t.Fatalf("exported surface differs from %s; if the change is meant, rerun with -update", golden)
	}
}

// exportedSurface lists the exported names of the non-test Go files in
// dir: top-level names as they are, methods as (*T).M or T.M, struct
// fields and interface methods as T.F — those of exported types only. An
// exported method or field of an unexported type embedded in an exported
// struct is listed as the struct's, (*T).M or T.F: promoted, it is T's API.
func exportedSurface(t *testing.T, dir string) []string {
	_, files := nonTestFiles(t, dir)
	var names []string
	hidden := map[string][]string{}       // an unexported type's exported methods
	hiddenFields := map[string][]string{} // and its exported fields
	var embeds [][2]string                // {exported struct, unexported type it embeds}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv, ptr := d.Recv.List[0].Type, false
				if s, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = s.X, true
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok {
					continue
				}
				if !id.IsExported() {
					hidden[id.Name] = append(hidden[id.Name], d.Name.Name)
					continue
				}
				if ptr {
					names = append(names, "(*"+id.Name+")."+d.Name.Name)
				} else {
					names = append(names, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, fl := range st.Fields.List {
									for _, n := range fl.Names {
										if n.IsExported() {
											hiddenFields[s.Name.Name] = append(hiddenFields[s.Name.Name], n.Name)
										}
									}
								}
							}
							continue
						}
						names = append(names, s.Name.Name)
						var fields *ast.FieldList
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fieldNames(fl) {
								if ast.IsExported(n) {
									names = append(names, s.Name.Name+"."+n)
								} else if len(fl.Names) == 0 {
									embeds = append(embeds, [2]string{s.Name.Name, n})
								}
							}
						}
					}
				}
			}
		}
	}
	for _, e := range embeds {
		for _, m := range hidden[e[1]] {
			names = append(names, "(*"+e[0]+")."+m)
		}
		for _, f := range hiddenFields[e[1]] {
			names = append(names, e[0]+"."+f)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// nonTestFiles parses the non-test Go files in dir.
func nonTestFiles(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// wallClock lists every use of the time package's clock functions that a
// non-test file may make, one line per use, each with its reason. The
// rest of the package reads time through clock (clock.go), which a test
// or a simulator stands in for.
var wallClock = []struct{ use, why string }{
	{"clock.go: time.Now", "the clock's default now"},
	{"clock.go: time.After", "the clock's default after"},
	{"mux.go: time.AfterFunc", "the reader-done flusher, on the socket path a simulated transport does not run"},
	{"tcp.go: time.Now", "the write-deadline rearm: the kernel counts a socket deadline in wall time"},
}

// TestOneClock pins the one clock: a call to (or a reference to) time.Now,
// Since, Until, After, AfterFunc, NewTimer, NewTicker, Tick or Sleep in a
// non-test file must be one of wallClock's lines. Without it a
// simulator's determinism rots one time.Now at a time.
func TestOneClock(t *testing.T) {
	reads := map[string]bool{"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true}
	want := map[string]int{}
	for _, w := range wallClock {
		want[w.use]++
	}
	got := map[string]int{}
	fset, files := nonTestFiles(t, ".")
	for _, f := range files {
		pkg := "" // the name the file imports "time" under
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				pkg = "time"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !reads[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
				return true
			}
			pos := fset.Position(sel.Pos())
			use := filepath.Base(pos.Filename) + ": time." + sel.Sel.Name
			if got[use]++; got[use] > want[use] {
				t.Errorf("%s: time.%s reads the wall clock; read the package's clock (clock.go) instead", pos, sel.Sel.Name)
			}
			return true
		})
	}
	for _, w := range wallClock {
		if got[w.use] < want[w.use] {
			t.Errorf("wallClock allows %q (%s), which the package no longer makes: drop the line", w.use, w.why)
		}
	}
}

// fieldNames returns a field's names, or for an embedded one the name of
// the type it embeds.
func fieldNames(fl *ast.Field) []string {
	if len(fl.Names) > 0 {
		names := make([]string, len(fl.Names))
		for i, n := range fl.Names {
			names[i] = n.Name
		}
		return names
	}
	ty := fl.Type
	if s, ok := ty.(*ast.StarExpr); ok {
		ty = s.X
	}
	if ix, ok := ty.(*ast.IndexExpr); ok {
		ty = ix.X
	}
	switch e := ty.(type) {
	case *ast.Ident:
		return []string{e.Name}
	case *ast.SelectorExpr:
		return []string{e.Sel.Name}
	}
	return nil
}
