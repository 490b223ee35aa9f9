package suppressbad

import (
	"errors"
	"fmt"
)

var errThing = errors.New("thing")

func missingReason() error {
	//lint:ignore errwrap
	return fmt.Errorf("op: %v", errThing)
}

func unknownRule() error {
	//lint:ignore nosuchrule the rule name is wrong so this must not suppress
	return fmt.Errorf("op: %v", errThing)
}

func bareDirective() error {
	//lint:ignore
	return fmt.Errorf("op: %v", errThing)
}

// Every analyzer runs over this fixture: a non-test user keeps
// testonly silent.
var _ = []func() error{missingReason, unknownRule, bareDirective}
