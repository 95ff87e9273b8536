// Package semiring defines the algebraic structures the GraphBLAS-style
// kernels compute over. GraphBLAS permits any semiring in place of
// (+, ×) (paper §II-A); the kernels in internal/core and the
// accumulators in internal/accum are generic over a Semiring type
// parameter instantiated with one of the structs below.
//
// That is not the C++ template instantiation GrB relies on. The Go
// compiler stencils generic code per GC shape, and every zero-size
// semiring here has the same shape (struct{}), so they all share one
// compiled kernel and reach Plus and Times through its type dictionary:
// an indirect call that is never inlined (go tool objdump shows it as
// CALL through a register). The kernels are built around that cost
// rather than pretending it away: the accumulator contract is one call
// per B row, not per entry (accum.Accumulator's Scatter and
// ScatterMasked), and inside it Times is evaluated lazily — only for
// entries the mask admits — so a rejected Eq. 2 FLOP makes no semiring
// call at all. Laziness is sound because semirings are stateless.
package semiring

import "maskedspgemm/internal/sparse"

// Semiring is the operation set for C = M ⊙ (A ⊗.⊕ B). Plus is the
// additive monoid (accumulation), Times the multiplicative operation,
// and Zero the additive identity used to initialize accumulator slots.
//
// Implementations must be stateless; kernels copy them freely across
// goroutines.
type Semiring[T sparse.Number] interface {
	Plus(x, y T) T
	Times(x, y T) T
	Zero() T
}

// PlusTimes is the arithmetic (+, ×) semiring — the default GrB_PLUS_TIMES.
type PlusTimes[T sparse.Number] struct{}

func (PlusTimes[T]) Plus(x, y T) T  { return x + y }
func (PlusTimes[T]) Times(x, y T) T { return x * y }
func (PlusTimes[T]) Zero() T        { var z T; return z }

// PlusPair is the (+, pair) semiring: Times ignores its operands and
// yields 1. Triangle counting uses it to count structural matches
// without touching the value streams of A and B — one of the ablation
// points called out in DESIGN.md §5.
type PlusPair[T sparse.Number] struct{}

func (PlusPair[T]) Plus(x, y T) T { return x + y }
func (PlusPair[T]) Times(T, T) T  { return 1 }
func (PlusPair[T]) Zero() T       { var z T; return z }

// PlusSecond is the (+, second) semiring: Times returns its second
// operand. Used by BFS-style traversals where only B's values matter.
type PlusSecond[T sparse.Number] struct{}

func (PlusSecond[T]) Plus(x, y T) T  { return x + y }
func (PlusSecond[T]) Times(_, y T) T { return y }
func (PlusSecond[T]) Zero() T        { var z T; return z }

// MinPlus is the tropical semiring (min, +) over a numeric type; Zero is
// the largest representable value acting as +∞. Shortest-path style
// computations use it.
type MinPlus[T sparse.Number] struct{ Inf T }

func (s MinPlus[T]) Plus(x, y T) T {
	if x < y {
		return x
	}
	return y
}
func (s MinPlus[T]) Times(x, y T) T { return x + y }
func (s MinPlus[T]) Zero() T        { return s.Inf }

// MinFirst is the (min, first) semiring: Plus keeps the minimum, Times
// passes through its first operand — the input-vector value. Label
// propagation (connected components) uses it to push each vertex's
// label to its neighbors and keep the smallest.
type MinFirst[T sparse.Number] struct{ Inf T }

func (s MinFirst[T]) Plus(x, y T) T {
	if x < y {
		return x
	}
	return y
}
func (s MinFirst[T]) Times(x, _ T) T { return x }
func (s MinFirst[T]) Zero() T        { return s.Inf }

// OrAnd is the Boolean (∨, ∧) semiring encoded over a numeric type:
// nonzero is true. BFS frontier expansion uses it.
type OrAnd[T sparse.Number] struct{}

func (OrAnd[T]) Plus(x, y T) T {
	if x != 0 || y != 0 {
		return 1
	}
	return 0
}
func (OrAnd[T]) Times(x, y T) T {
	if x != 0 && y != 0 {
		return 1
	}
	return 0
}
func (OrAnd[T]) Zero() T { var z T; return z }
