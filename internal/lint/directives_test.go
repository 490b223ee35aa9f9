package lint

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDirectives = flag.Bool("update", false, "rewrite testdata/directives.txt from the module's lint:ignore directives")

// TestDirectives pins every lint:ignore directive outside internal/lint
// (whose fixtures carry their own) as "file: rule: reason" lines in
// testdata/directives.txt, so a new suppression shows up as a reviewed
// diff of that file. A deliberate change reruns the test with -update.
func TestDirectives(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel == "internal/lint" || (path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text, ok := strings.CutPrefix(c.Text, "//lint:ignore"); ok {
					lines = append(lines, rel+": "+strings.Join(strings.SplitN(strings.TrimSpace(text), " ", 2), ": "))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "directives.txt")
	if *updateDirectives {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("lint:ignore directives changed; review them, then rerun with -update:\n--- got\n%s--- want\n%s", got, want)
	}
}
