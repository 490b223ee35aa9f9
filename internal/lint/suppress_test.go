package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedDirectivesAreNotSuppressions pins the directive
// contract from the suppressbad fixture: a lint:ignore with a missing
// reason, an unknown rule name, or no fields at all is (a) reported
// under rule "lint" and (b) does NOT suppress the finding it sits on.
// Because sodavet exits nonzero on any diagnostic, this is what makes
// a malformed directive fail `make lint`.
func TestMalformedDirectivesAreNotSuppressions(t *testing.T) {
	pkg, err := loadFixture(filepath.Join("testdata", "src", "suppressbad"))
	if err != nil {
		t.Fatalf("loadFixture: %v", err)
	}
	diags := Run([]*Package{pkg}, All)

	byRule := make(map[string]int)
	var lintMsgs []string
	for _, d := range diags {
		byRule[d.Rule]++
		if d.Rule == "lint" {
			lintMsgs = append(lintMsgs, d.Message)
		}
	}
	if byRule["lint"] != 3 {
		t.Errorf("lint (directive validation) diagnostics = %d, want 3:\n%s",
			byRule["lint"], strings.Join(lintMsgs, "\n"))
	}
	if byRule["errwrap"] != 3 {
		t.Errorf("errwrap diagnostics = %d, want 3: a malformed directive must not suppress", byRule["errwrap"])
	}

	joined := strings.Join(lintMsgs, "\n")
	for _, want := range []string{
		"needs a non-empty reason",
		`unknown rule "nosuchrule"`,
		"needs a rule name and a reason",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("no directive diagnostic mentions %q in:\n%s", want, joined)
		}
	}
}

// TestRulesRegistry pins the suite surface: six analyzers, with stable
// names the suppression syntax and -rules flag address.
func TestRulesRegistry(t *testing.T) {
	rules := Rules()
	want := []string{"atomicmix", "lockhold", "errwrap", "epochframe", "poolsafe", "testonly"}
	if strings.Join(rules, ",") != strings.Join(want, ",") {
		t.Fatalf("registered analyzers = %v, want %v", rules, want)
	}
}
