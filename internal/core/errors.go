package core

import (
	"context"
	"errors"
	"fmt"

	"maskedspgemm/internal/sched"
)

// The error taxonomy of the execution-hardening layer. Every failure a
// kernel can produce maps onto exactly one of these sentinels (plus
// sparse.ErrShape for dimension mismatches), so callers can dispatch
// with errors.Is instead of string matching — the GraphBLAS contract of
// error codes rather than aborts.
var (
	// ErrConfig marks a Config rejected by Validate: an unknown enum
	// value, an out-of-range knob, or an inconsistent combination.
	ErrConfig = errors.New("core: invalid configuration")

	// ErrInvalidMatrix marks an operand that violates the CSR structural
	// invariants (unsorted or duplicate columns, out-of-range indices,
	// broken row pointers).
	ErrInvalidMatrix = errors.New("core: invalid matrix")

	// ErrCanceled marks a multiplication aborted by its context. It
	// wraps the context's own error, so errors.Is also matches
	// context.Canceled or context.DeadlineExceeded as appropriate.
	ErrCanceled = errors.New("core: multiplication canceled")

	// ErrPanic marks a panic recovered inside a kernel worker. It wraps
	// a *sched.PanicError carrying the panic value and stack.
	ErrPanic = errors.New("core: kernel panic")

	// ErrStalled marks a multiplication failed by the stall watchdog
	// (Config.StallTimeout): no tile completed for a full timeout while
	// work remained. It wraps a *sched.StallError carrying the
	// completed/total tile counts and an all-goroutine stack snapshot.
	ErrStalled = errors.New("core: multiplication stalled")

	// ErrSingular marks a triangular solve whose operand cannot be
	// inverted: a structurally missing diagonal entry
	// (detected at plan time) or a stored-but-zero diagonal value
	// (detected during substitution).
	ErrSingular = errors.New("core: singular triangular operand")

	// ErrNotTriangular marks a triangular-solve operand that stores an
	// entry on the wrong side of the diagonal — the level-set plan would
	// silently drop it, so it is rejected at plan time instead.
	ErrNotTriangular = errors.New("core: operand is not triangular")
)

// errConfig builds a Validate rejection wrapping ErrConfig.
func errConfig(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
}

// wrapRunErr maps a scheduler/plan-phase error into the taxonomy:
// worker panics become ErrPanic (still errors.As-able to
// *sched.PanicError), stall verdicts become ErrStalled (still
// errors.As-able to *sched.StallError), context errors become
// ErrCanceled (still errors.Is-able to the underlying context error),
// anything else passes through unchanged. An injected spurious cancel
// reaches ErrCanceled too, but additionally matches chaos.ErrInjected,
// which is how a test tells it apart from a caller's cancel.
func wrapRunErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("%w: %w", ErrPanic, pe)
	}
	var se *sched.StallError
	if errors.As(err, &se) {
		return fmt.Errorf("%w: %w", ErrStalled, se)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// wrapSolveErr is wrapRunErr for the triangular-solve kernel, with one
// extra rule first: a worker that hit a zero diagonal panics with an
// ErrSingular-wrapped error (the substitution cannot continue), and the
// containment frame turns that into a *PanicError. That is a domain
// outcome, not a kernel defect, so it surfaces as the original singular
// error rather than ErrPanic — PanicError.Unwrap keeps the chain
// classifiable either way.
func wrapSolveErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *sched.PanicError
	if errors.As(err, &pe) && errors.Is(pe, ErrSingular) {
		if e, ok := pe.Value.(error); ok {
			return e
		}
	}
	return wrapRunErr(err)
}
