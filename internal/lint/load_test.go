package lint

import (
	"reflect"
	"sort"
	"testing"
)

// TestSelectPackages pins pattern matching against go vet's: a pattern
// is cleaned before it is matched, so a trailing slash or a missing
// "./" names the same package, and a pattern that names no package is
// still an error.
func TestSelectPackages(t *testing.T) {
	nodes := make(map[string]*pkgNode)
	for _, ip := range []string{"repro", "repro/internal/soda", "repro/internal/sodax", "repro/internal/rs"} {
		nodes[ip] = &pkgNode{importPath: ip}
	}
	for _, tc := range []struct {
		pattern string
		want    []string // nil: an error
	}{
		{"./internal/soda", []string{"repro/internal/soda"}},
		{"./internal/soda/", []string{"repro/internal/soda"}},
		{"internal/soda/", []string{"repro/internal/soda"}},
		{"./internal/soda/...", []string{"repro/internal/soda"}},
		{"./internal/nosuch", nil},
	} {
		sel, err := selectPackages(nodes, "repro", []string{tc.pattern})
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: selected %v, want an error", tc.pattern, sel)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.pattern, err)
			continue
		}
		var got []string
		for ip := range sel {
			got = append(got, ip)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q selects %v, want %v", tc.pattern, got, tc.want)
		}
	}
}
