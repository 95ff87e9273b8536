// Package cgmain exercises every call-site shape the graph resolves:
// method calls, cross-package calls, go/defer statements, calls inside
// function literals (attributed to the enclosing declaration), calls
// into export-data-only functions, and unresolvable function values.
package cgmain

import (
	"strings"

	"cgdep"
)

type T struct{}

// M calls across the package boundary and into the stdlib.
func (t T) M() string {
	cgdep.Leaf()
	return strings.ToUpper("m")
}

// Top's body covers every call-site shape.
func Top() {
	var t T
	t.M()
	go cgdep.Leaf()
	defer helper()
	f := func() { helper() }
	f()
}

func helper() {}
