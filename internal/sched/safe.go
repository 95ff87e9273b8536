package sched

import (
	"context"
	"fmt"
	"runtime/debug"
)

// This file is the fault containment every entry point shares: each
// worker recovers panics, the first panic (value + stack) is captured
// into a PanicError, and an optional context cancels the run between
// tile claims.
//
// Cost on the uncancelled path: one relaxed atomic load per tile, one
// deferred recover frame per worker (not per tile), and a single
// watcher goroutine per run — and the watcher is only spawned when the
// context is non-nil and cancellable. The context itself (ctx.Err takes
// a lock in the standard library) is never polled by workers; the
// watcher mirrors cancellation into an atomic flag once.

// PanicError is a panic recovered inside a scheduler worker, carrying
// the original panic value and the stack of the panicking goroutine.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted stack trace of the panicking worker.
	Stack []byte
	// Worker is the worker id that panicked.
	Worker int
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: worker %d panicked: %v\n%s", e.Worker, e.Value, e.Stack)
}

// Unwrap exposes an error-typed panic value to errors.Is/As chains, so
// a worker that panicked with a classifiable error — an injected chaos
// fault, an out-of-memory sentinel — stays classifiable after
// containment. Non-error panic values unwrap to nothing.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// halt raises the stop flag and wakes any workers parked at a wave
// barrier so they observe it and drain. Every stop-setter must go
// through halt, or a parked worker could sleep through the failure it
// is supposed to drain on.
func (r *run) halt() {
	r.stop.Store(true)
	r.bar.wake()
}

// panicError wraps the value worker w panicked with, and the stack of
// the panicking goroutine; call it from the recovering frame.
func panicError(w int, v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack(), Worker: w}
}

// capture records the first panic and tells every worker to drain.
func (r *run) capture(pe *PanicError) {
	r.mu.Lock()
	if r.pe == nil {
		r.pe = pe
	}
	r.mu.Unlock()
	r.halt()
}

// watch mirrors ctx cancellation into the stop flag from a side
// goroutine, so workers never touch the context's lock. The returned
// function must be called to release the watcher.
func (r *run) watch(ctx context.Context) (finish func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			r.halt()
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// err resolves the run's outcome from what its workers recorded.
func (r *run) err(ctx context.Context) error {
	r.mu.Lock()
	pe, se, cause := r.pe, r.se, r.cause
	r.mu.Unlock()
	return outcome(ctx, pe, se, cause)
}

// outcome is the error precedence of every run: a worker panic wins
// over everything; a genuinely cancelled context is reported even if it
// raced with completion (matching the context package's own
// convention); then a stall verdict; then an injected spurious cancel.
func outcome(ctx context.Context, pe *PanicError, se *StallError, cause error) error {
	if pe != nil {
		return pe
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if se != nil {
		return se
	}
	return cause
}

// blockCutoff is the length below which an O(n) block pass (a plan's
// row work, prefix sum and mask scan, a product's assembly) stays on
// the caller's goroutine: handing a few thousand rows to workers costs
// more than the pass itself. A variable so tests can lower it.
var blockCutoff = 1 << 14

// BlockWorkers returns the worker count an O(n) block pass over n items
// should use: 1 below the serial cutoff, p otherwise. Callers run their
// serial loop directly when it returns 1, rather than a one-worker
// BlocksE, so the short pass allocates no closure.
func BlockWorkers(p, n int) int {
	if n < blockCutoff {
		return 1
	}
	return p
}

// SetBlockCutoffForTest overrides BlockWorkers' serial cutoff and
// returns the previous value, so tests in dependent packages can drive
// the parallel passes with small inputs. Not for production use.
func SetBlockCutoffForTest(n int) (old int) {
	old, blockCutoff = blockCutoff, n
	return old
}

// BlocksE partitions [0, n) into at most p contiguous, near-equal blocks
// and executes fn(worker, lo, hi) concurrently, one block per worker.
// Block boundaries are deterministic (n*w/p), so repeated calls with the
// same (p, n) see identical blocks — the two passes of a parallel prefix
// sum rely on this. The blocks are the tiles of a Static run of
// SingleWave(workers), so worker w owns block w and the run is the wave
// executor's: its workers, its cancellation check before a block
// starts, its panic containment (a panic inside any block is returned
// as a *PanicError). When p <= 1 the single block runs inline on the
// caller's goroutine (runInline), allocating nothing of its own.
// Non-positive n runs nothing. ctx may be nil.
func BlocksE(ctx context.Context, p, n int, fn func(worker, lo, hi int)) error {
	// Assigned once, so the tile function copies it: a reassigned value
	// would move to the heap on every call, the one-worker one too.
	workers := min(Workers(p), n)
	if workers <= 1 {
		// The one block is RunWavesOpts's one-worker run of one tile
		// (no tile when n <= 0): no control block, no watcher.
		return runInline(ctx, SingleWave(min(n, 1)), nil, func(int, int) { fn(0, 0, n) })
	}
	return RunWavesOpts(ctx, Static, workers, SingleWave(workers), RunOpts{}, func(w, _ int) {
		fn(w, n*w/workers, n*(w+1)/workers)
	})
}
