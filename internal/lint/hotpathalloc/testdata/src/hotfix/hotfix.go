// Package hotfix is the hotpathalloc fixture: every construct the
// analyzer must flag inside //spgemm:hotpath functions, plus the
// shapes it must trust (parameters, preallocated buffers, hot-path
// callees, dynamic dispatch, suppressions).
package hotfix

import (
	"fmt"
	"sort"
)

type item struct{ a, b int }

type sink interface{ m() }

type val int

func (val) m() {}

// plain is not hot-path: nothing here is reported.
func plain() []int {
	xs := []int{1, 2, 3}
	m := map[int]int{1: 2}
	_ = m
	go plainHelper()
	return append(xs, 4)
}

func plainHelper() {}

// allocHelper allocates and is not hot-path; hot-path callers are
// reported (one level of propagation).
func allocHelper(n int) []int {
	return make([]int, n)
}

// pure is allocation-free, so hot-path callers are fine.
func pure(x int) int { return x + 1 }

//spgemm:hotpath
func hotAllocs(s string, xs []int, ss sink, v val) {
	_ = make([]int, 4)           // want `make allocates`
	_ = new(item)                // want `new allocates`
	_ = []int{1}                 // want `slice literal allocates`
	_ = map[int]int{}            // want `map literal allocates`
	_ = &item{}                  // want `&composite literal escapes to the heap`
	f := func() int { return 1 } // want `closure literal allocates`
	_ = f
	go plainHelper() // want `go statement spawns a goroutine`
	_ = s + "!"      // want `string concatenation allocates`
	_ = []byte(s)    // want `conversion between string and \[\]byte`
	ss = v           // want `val boxed into interface sink`
	_ = ss
	sort.Ints(xs)      // want `package sort is allocation-prone`
	_ = fmt.Sprintln() // want `package fmt is allocation-prone`
	_ = allocHelper(3) // want `calls allocHelper, which allocates`
	_ = pure(4)
}

//spgemm:hotpath
func hotAppend(dst []int, x int) []int {
	buf := make([]int, 0, 8) // want `make allocates`
	buf = append(buf, x)     // append to a capacity-preallocated local is fine
	var bad []int
	bad = append(bad, x)           // want `append to bad, declared without capacity`
	grow := make([]int, 0)         // want `make allocates`
	grow = append(grow, x)         // want `append may grow un-preallocated slice grow`
	fresh := append([]int(nil), x) // want `append to a fresh slice allocates`
	lit := append([]int{}, x)      // want `slice literal allocates`
	_ = buf
	_ = grow
	_ = fresh
	_ = lit
	return append(dst, x) // parameter buffer is the caller's contract
}

type accumulator interface{ update(int) }

//spgemm:hotpath
func viaInterface(a accumulator) {
	a.update(1) // dynamic dispatch: not resolvable statically
}

//spgemm:hotpath
func hotInner() {
	_ = make([]int, 1) // want `make allocates`
}

//spgemm:hotpath
func hotOuter() {
	hotInner() // hot-path callee is checked at its own definition
}

//spgemm:hotpath
func suppressed() {
	//lint:ignore hotpathalloc amortized growth outside the steady state
	_ = make([]int, 8)
}

type table[T any] struct{ slots []T }

// grow is a generic allocating slow path; the instantiated method call
// below must still resolve to this declaration's fact.
func (t *table[T]) grow() {
	t.slots = make([]T, 2*len(t.slots))
}

//spgemm:hotpath
func (t *table[T]) insert(x T) {
	t.slots[0] = x
	t.grow() // want `calls grow, which allocates`
}
