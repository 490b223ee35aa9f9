package lint

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestDirectives pins the directive list `make lint` compares with
// testdata/directives.txt on the suppress fixture: every well-formed
// lint:ignore, trailing or on a line of its own, as "file: rule:
// reason", the file relative to the root it is given, sorted.
func TestDirectives(t *testing.T) {
	pkg, err := loadFixture(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatalf("loadFixture: %v", err)
	}
	got := Directives([]*Package{pkg}, filepath.Dir(pkg.Dir))
	want := []string{
		"suppress/suppress.go: epochframe: suppressing a different rule must not hide errwrap findings",
		"suppress/suppress.go: errwrap: this error crosses a JSON boundary and is flattened on purpose",
		"suppress/suppress.go: errwrap: this error crosses a JSON boundary and is flattened on purpose",
	}
	if !slices.Equal(got, want) {
		t.Errorf("Directives =\n%q\nwant\n%q", got, want)
	}
}
