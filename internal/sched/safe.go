package sched

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the fault containment every entry point shares: each
// worker recovers panics, the first panic (value + stack) is captured
// into a PanicError, and an optional context cancels the run between
// tile claims (or, for BlocksE, before a block starts).
//
// Cost on the uncancelled path: one relaxed atomic load per tile, one
// deferred recover frame per worker goroutine (not per tile), and a
// single watcher goroutine per run — and the watcher is only spawned
// when the context is non-nil and cancellable. The context itself
// (ctx.Err takes a lock in the standard library) is never polled by
// workers; the watcher mirrors cancellation into an atomic flag once.

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

// runState is the shared control block of one fault-contained run.
type runState struct {
	// stop is set on cancellation or first panic; workers observe it
	// between tile claims and drain without starting new work.
	stop atomic.Bool
	// done counts completed tiles; the stall watchdog samples it.
	// Incremented only when a watchdog is armed, so the plain paths
	// stay increment-free.
	done atomic.Int64
	mu   sync.Mutex
	pe   *PanicError
	// seam serializes the crossings of an armed TileClaim seam
	// (injectClaim).
	seam sync.Mutex
	// se records a stall-watchdog verdict; cause records an injected
	// spurious cancel. Both must carry an error — a stop flag with no
	// recorded cause would silently truncate the result.
	se    *StallError
	cause error
	// wave tracks the index of the wave currently executing, so stall
	// verdicts can name the stuck wave of a dependency-carrying run.
	wave atomic.Int64
	// wake, when non-nil, rouses workers parked at a wave barrier after
	// the stop flag is raised (set once, before any worker spawns). Every
	// stop-setter must go through halt, or a parked worker could sleep
	// through the failure it is supposed to drain on.
	wake func()
}

// halt raises the stop flag and wakes any workers parked at a wave
// barrier so they observe it and drain.
func (st *runState) halt() {
	st.stop.Store(true)
	if st.wake != nil {
		st.wake()
	}
}

// panicError wraps the value worker w panicked with, and the stack of
// the panicking goroutine; call it from the recovering frame.
func panicError(w int, v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack(), Worker: w}
}

// capture records the first panic and tells every worker to drain.
func (st *runState) capture(pe *PanicError) {
	st.mu.Lock()
	if st.pe == nil {
		st.pe = pe
	}
	st.mu.Unlock()
	st.halt()
}

// watch mirrors ctx cancellation into the stop flag from a side
// goroutine, so workers never touch the context's lock. The returned
// function must be called to release the watcher.
func (st *runState) watch(ctx context.Context) (finish func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			st.halt()
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// err resolves the run's outcome from what its workers recorded.
func (st *runState) err(ctx context.Context) error {
	st.mu.Lock()
	pe, se, cause := st.pe, st.se, st.cause
	st.mu.Unlock()
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

// guard runs loop with a recover frame, capturing any panic into st.
func (st *runState) guard(w int, loop func()) {
	defer func() {
		if r := recover(); r != nil {
			st.capture(panicError(w, r))
		}
	}()
	loop()
}

// BlocksE partitions [0, n) into at most p contiguous, near-equal blocks
// and executes fn(worker, lo, hi) concurrently, one block per worker.
// Block boundaries are deterministic (n*w/p), so repeated calls with the
// same (p, n) see identical blocks — the two passes of a parallel prefix
// sum rely on this. When p <= 1 the single block runs inline on the
// caller's goroutine (runInline), allocating nothing of its own.
// Non-positive n runs nothing. The blocks run on parked helpers (spawn).
// Each worker checks for cancellation
// before starting its block, and a panic inside any block is returned
// as a *PanicError instead of crashing the process. ctx may be nil.
func BlocksE(ctx context.Context, p, n int, fn func(worker, lo, hi int)) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Assigned once, so the worker closures copy it: a reassigned p
	// would move to the heap on every call, the one-worker one too.
	workers := min(Workers(p), n)
	if workers <= 1 {
		// The one block is RunWavesOpts's one-worker run of one tile
		// (no tile when n <= 0): no control block, no watcher.
		return runInline(ctx, SingleWave(min(n, 1)), nil, func(int, int) { fn(0, 0, n) })
	}
	var st runState
	defer st.watch(ctx)()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		spawn(&wg, func() {
			st.guard(w, func() {
				if st.stop.Load() {
					return
				}
				fn(w, n*w/workers, n*(w+1)/workers)
			})
		})
	}
	wg.Wait()
	return st.err(ctx)
}
