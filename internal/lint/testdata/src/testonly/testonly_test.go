package testonly

import (
	"fmt"
	"testing"
)

func TestUses(t *testing.T) {
	if helper()+Exported()+tunable+limit+kept() == 0 {
		t.Fatal("zero")
	}
	_ = code(1).Render(2)
	_ = label{}.String(3)
}

// fromTest is declared in a test file: never a finding.
func fromTest() int { return helper() }

func ExampleGetter() {
	fmt.Println(documented())
	// Output: 5
}
