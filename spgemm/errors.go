package spgemm

import (
	"fmt"
	"runtime/debug"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
)

// The package's error taxonomy. Every error returned by the public API
// wraps exactly one of these sentinels, so callers can dispatch with
// errors.Is without parsing messages. See docs/ERRORS.md for the full
// contract.
var (
	// ErrShape marks operand dimension mismatches (a is m×k, b is k×n,
	// mask is m×n), and a BFS or BC source outside [0, n).
	ErrShape = sparse.ErrShape
	// ErrConfig marks invalid Options — unknown enum values, a negative
	// worker count or stall timeout — and a k-truss k below 3. Options
	// carries no κ or tile count, so neither is reported here.
	ErrConfig = core.ErrConfig
	// ErrInvalidMatrix marks operands that violate the CSR invariants
	// (detected when Options.ValidateInputs is set, or by Matrix input
	// readers on malformed files), and an asymmetric adjacency given to
	// TriangleCount (its diagonal entries are ignored, not an error).
	ErrInvalidMatrix = core.ErrInvalidMatrix
	// ErrCanceled marks a multiplication stopped by its context. The
	// chain also matches the context's own error (context.Canceled or
	// context.DeadlineExceeded).
	ErrCanceled = core.ErrCanceled
	// ErrPanic marks a panic inside the kernel that was contained and
	// converted to an error. The chain carries a *PanicError with the
	// original panic value and stack.
	ErrPanic = core.ErrPanic
	// ErrStalled marks a run stopped by the Options.StallTimeout
	// watchdog: no tile completed for a full timeout window. The chain
	// carries a *StallError with the progress count and the stacks of
	// every goroutine at verdict time.
	ErrStalled = core.ErrStalled
	// ErrSingular marks a triangular solve whose operand has a
	// structurally missing or numerically zero diagonal entry; the
	// message names the row.
	ErrSingular = core.ErrSingular
	// ErrNotTriangular marks a triangular solve whose operand has an
	// entry on the wrong side of the diagonal for the selected triangle.
	ErrNotTriangular = core.ErrNotTriangular
)

// PanicError is the typed capture of a contained kernel panic:
// errors.As(err, &pe) on an ErrPanic chain recovers the original panic
// value, the worker that hit it, and its stack trace.
type PanicError = sched.PanicError

// StallError is the typed capture of a stall-watchdog verdict:
// errors.As(err, &se) on an ErrStalled chain recovers the configured
// timeout, the tile progress at verdict time, and the stacks of every
// goroutine — including the stuck workers.
type StallError = sched.StallError

// recoverAsError converts a panic on the calling goroutine into an
// ErrPanic-wrapped error. The scheduler already contains worker-side
// panics; this guard covers the serial paths that run below the
// parallel cutoffs on the caller's own goroutine, so no panic at all
// can escape the public API for malformed (unsafe-free) inputs.
func recoverAsError(err *error) {
	if r := recover(); r != nil {
		pe := &PanicError{Value: r, Stack: debug.Stack(), Worker: -1}
		*err = fmt.Errorf("%w: %w", ErrPanic, pe)
	}
}

// validate rejects a Semiring outside the enum as ErrConfig, then runs,
// under Options.ValidateInputs, the full CSR invariant check over each
// named operand, parallelized across the workers. Any violation is
// reported as ErrInvalidMatrix naming the offending operand.
func (o Options) validate(operands ...namedOperand) error {
	if o.Semiring < 0 || int(o.Semiring) >= len(semiringKernels) {
		return fmt.Errorf("%w: unknown semiring %d", ErrConfig, o.Semiring)
	}
	if !o.ValidateInputs {
		return nil
	}
	p := sched.Workers(o.Workers)
	for _, op := range operands {
		if op.m == nil || op.m.csr == nil {
			return fmt.Errorf("%w: %s is nil", ErrInvalidMatrix, op.name)
		}
		if err := op.m.csr.CheckParallel(p); err != nil {
			return fmt.Errorf("%w: %s: %w", ErrInvalidMatrix, op.name, err)
		}
	}
	return nil
}

type namedOperand struct {
	name string
	m    *Matrix
}
