package suppress

import (
	"errors"
	"fmt"
)

var errThing = errors.New("thing")

func suppressedTrailing() error {
	return fmt.Errorf("op: %v", errThing) //lint:ignore errwrap this error crosses a JSON boundary and is flattened on purpose
}

func suppressedAbove() error {
	//lint:ignore errwrap this error crosses a JSON boundary and is flattened on purpose
	return fmt.Errorf("op: %v", errThing)
}

func unsuppressed() error {
	return fmt.Errorf("op: %v", errThing) // want `formatted with %v`
}

func wrongRuleDoesNotCover() error {
	//lint:ignore epochframe suppressing a different rule must not hide errwrap findings
	return fmt.Errorf("op: %v", errThing) // want `formatted with %v`
}

// Every analyzer runs over this fixture: a non-test user keeps
// testonly silent.
var _ = []func() error{suppressedTrailing, suppressedAbove, unsuppressed, wrongRuleDoesNotCover}
