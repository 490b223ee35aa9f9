package testonly

import "fmt"

func helper() int { return 1 } // want `func helper is referenced only from _test.go files`

func Exported() int { return 2 } // want `func Exported is referenced only from _test.go files`

func orphan() {} // want `func orphan has no reference outside its own declaration`

// A call to itself is not a use.
func countdown(n int) int { // want `func countdown has no reference outside its own declaration`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

var tunable = 3 // want `var tunable is referenced only from _test.go files`

const limit = 4 // want `const limit is referenced only from _test.go files`

// documented is used only by an Example, which runs as a test and
// documents the API: silent.
func documented() int { return 5 }

//lint:ignore testonly tests in another package select it, and no test file can hold what two packages share
func kept() int { return 6 }

// Getter is an interface this package's non-test code uses. impl
// satisfies it with a method of its own and one promoted from base, the
// embedded type that does not satisfy it alone: neither method fires,
// though nothing calls either by name.
type Getter interface {
	Get() int
	Put(int)
}

type base struct{ v int }

func (b *base) Get() int { return b.v }

type impl struct{ base }

func (i *impl) Put(v int) { i.v = v }

// ask is reached by non-test code through the blank variable below.
func ask(g Getter) int { return g.Get() }

var _ = ask

// The standard library calls Error, String, Is, As and Unwrap through
// interfaces of its own, whether or not this package names them: silent
// with their standard signatures. A String with another signature is
// not one.
type code int

func (c code) Error() string           { return fmt.Sprint(int(c)) }
func (c code) Is(target error) bool    { return target == c }
func (c code) As(target any) bool      { return false }
func (c code) Unwrap() []error         { return nil }
func (c code) String() string          { return "code" }
func (c code) Render(width int) string { return fmt.Sprint(width) } // want `method Render is referenced only from _test.go files`

type label struct{}

func (label) String(n int) string { return fmt.Sprint(n) } // want `method String is referenced only from _test.go files`
