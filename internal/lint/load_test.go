package lint

import (
	"reflect"
	"sort"
	"testing"
)

// TestSelectPackages pins pattern matching against go vet's: a pattern
// is cleaned before it is matched, so a trailing slash or a missing
// "./" names the same package; a pattern that starts with "." is
// resolved against the working directory; and a pattern that names no
// package is still an error.
func TestSelectPackages(t *testing.T) {
	nodes := make(map[string]*pkgNode)
	for _, ip := range []string{"repro", "repro/internal/soda", "repro/internal/sodax", "repro/internal/rs"} {
		nodes[ip] = &pkgNode{importPath: ip}
	}
	for _, tc := range []struct {
		dir, pattern string   // dir: the working directory under the module root
		want         []string // nil: an error
	}{
		{".", "./internal/soda", []string{"repro/internal/soda"}},
		{".", "./internal/soda/", []string{"repro/internal/soda"}},
		{".", "internal/soda/", []string{"repro/internal/soda"}},
		{".", "./internal/soda/...", []string{"repro/internal/soda"}},
		{".", "./internal/nosuch", nil},
		{"internal/soda", ".", []string{"repro/internal/soda"}},
		{"internal/soda", "./...", []string{"repro/internal/soda"}},
		{"internal/soda", "../rs", []string{"repro/internal/rs"}},
		{"internal/soda", "internal/rs", []string{"repro/internal/rs"}},
		{"internal/soda", "../../..", nil},
	} {
		sel, err := selectPackages(nodes, "repro", tc.dir, []string{tc.pattern})
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q from %s: selected %v, want an error", tc.pattern, tc.dir, sel)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q from %s: %v", tc.pattern, tc.dir, err)
			continue
		}
		var got []string
		for ip := range sel {
			got = append(got, ip)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q from %s selects %v, want %v", tc.pattern, tc.dir, got, tc.want)
		}
	}
}
