// Package chaos is the repository's fault-injection layer: a set of
// named injection points at the execution stack's failure seams
// (workspace checkout/release, tile claim, worker spawn, accumulator
// grow, plan-cache store, row-kernel entry) that an Injector can arm
// with deterministic faults — panic, error, delay, spurious cancel,
// allocation-pressure simulation. The quarantine and watchdog
// machinery in exec/sched/spgemm is proven against these faults by the
// seeded chaos matrix (make chaos).
//
// The package follows the nil-safe obs.Recorder pattern: a nil
// Injector disables everything, and every seam consults it through
// Step/StepHard whose nil fast path is a single comparison — no
// allocation, no atomic, no call. Production configurations never pay
// for the instrumentation.
package chaos

import (
	"errors"
	"fmt"
	"time"
)

// Point names one injection seam. The set covers every failure class
// the execution stack must survive: pool corruption (checkout/release),
// scheduler faults (claim/spawn), accumulator faults mid-row (grow),
// cache faults (plan store) and kernel faults (row entry).
type Point uint8

const (
	// WorkspaceCheckout fires inside exec.Masked / exec.Dense after a
	// pooled workspace has been checked out.
	WorkspaceCheckout Point = iota
	// WorkspaceRelease fires inside Workspace.Release before a pooled
	// workspace is returned to its engine.
	WorkspaceRelease
	// TileClaim fires in the scheduler once per claimed tile, in every
	// policy including the serial below-cutoff loop.
	TileClaim
	// WorkerSpawn fires once inside each spawned worker goroutine,
	// within its panic-containment frame.
	WorkerSpawn
	// AccumGrow fires when a hash accumulator grows its table mid-row.
	AccumGrow
	// PlanStore fires in the engine's plan cache just before a freshly
	// built plan is stored.
	PlanStore
	// RowKernel fires at row-kernel entry, once per output row.
	RowKernel
	// WaveBarrier fires in the wave scheduler once per worker per
	// barrier crossing, before the worker arrives at the barrier — the
	// seam where a dependency-carrying run (the triangular solve) is
	// most exposed: a fault here must drain every parked worker without
	// deadlocking the barrier protocol.
	WaveBarrier
	// NumPoints bounds the Point enum.
	NumPoints
)

var pointNames = [NumPoints]string{
	"workspace-checkout", "workspace-release", "tile-claim",
	"worker-spawn", "accum-grow", "plan-store", "row-kernel",
	"wave-barrier",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("chaos.Point(%d)", uint8(p))
}

// Kind is the fault class an armed trigger injects.
type Kind uint8

const (
	// KindNone is the quiescent decision: no fault.
	KindNone Kind = iota
	// KindPanic panics with an *Injected value, exercising the
	// scheduler's containment and the pool's quarantine path.
	KindPanic
	// KindError surfaces through the seam's own error channel; seams
	// without one (StepHard) escalate it to a panic, the only way the
	// fault can be observed there.
	KindError
	// KindDelay sleeps for Fault.Delay and then proceeds normally —
	// the stall-watchdog trigger.
	KindDelay
	// KindCancel asks the seam to behave as if its context were
	// cancelled (a spurious, transient cancellation). Seams without a
	// cancellation channel escalate it like KindError.
	KindCancel
	// KindPressure simulates an allocation failure under memory
	// pressure: a burst of garbage allocations followed by a panic
	// with an *Injected value.
	KindPressure
)

var kindNames = [...]string{"none", "panic", "error", "delay", "cancel", "pressure"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("chaos.Kind(%d)", uint8(k))
}

// Fault is one injection decision. The zero value means no fault.
type Fault struct {
	Kind Kind
	// Delay is the sleep for KindDelay (0 means 100µs).
	Delay time.Duration
}

// Injector decides, per crossing of an injection point, whether to
// fault. Implementations must be safe for concurrent use: Decide is
// called from worker goroutines. A nil Injector disables injection
// entirely (the seams' fast path).
type Injector interface {
	Decide(p Point) Fault
}

// Func adapts a function to the Injector interface.
type Func func(Point) Fault

// Decide implements Injector.
func (f Func) Decide(p Point) Fault { return f(p) }

// ErrInjected marks every error and panic value originating from an
// injected fault, so tests can tell deliberate chaos from organic
// failures with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Injected is the typed payload of an injected fault: the panic value
// for KindPanic/KindPressure, the wrapped error for KindError. Its
// chain matches ErrInjected.
type Injected struct {
	Point Point
	Kind  Kind
}

func (e *Injected) Error() string {
	return fmt.Sprintf("%v at %v: %v", ErrInjected, e.Point, e.Kind)
}

// Unwrap ties the value into the ErrInjected chain.
func (e *Injected) Unwrap() error { return ErrInjected }

// pressureSink keeps the pressure burst's allocations observable so the
// compiler cannot elide them.
var pressureSink []byte

// execute performs the in-band fault kinds. KindPressure allocates a
// burst of garbage first, so the GC sees real pressure before the
// simulated allocation failure surfaces.
func execute(p Point, f Fault) {
	switch f.Kind {
	case KindPanic:
		panic(&Injected{Point: p, Kind: KindPanic})
	case KindPressure:
		for i := 0; i < 64; i++ {
			pressureSink = make([]byte, 64<<10)
		}
		pressureSink = nil
		panic(&Injected{Point: p, Kind: KindPressure})
	case KindDelay:
		d := f.Delay
		if d <= 0 {
			d = 100 * time.Microsecond
		}
		time.Sleep(d)
	}
}

// Step consults inj at point p and executes the fault in-band where it
// can: KindPanic and KindPressure panic with an *Injected value,
// KindDelay sleeps. KindError and KindCancel are returned as the Kind
// for the seam to translate into its own error or cancellation channel
// (the plan cache skips its store, the scheduler records a spurious
// cancel). A nil inj returns KindNone after a single comparison.
func Step(inj Injector, p Point) Kind {
	if inj == nil {
		return KindNone
	}
	f := inj.Decide(p)
	switch f.Kind {
	case KindNone:
		return KindNone
	case KindError, KindCancel:
		return f.Kind
	}
	execute(p, f)
	return KindNone
}

// StepHard is Step for seams with no error or cancellation channel
// (workspace checkout/release, accumulator grow, row-kernel entry):
// KindError and KindCancel also panic with an *Injected value, the only
// way those faults can surface there. A nil inj is a single comparison.
func StepHard(inj Injector, p Point) {
	if inj == nil {
		return
	}
	f := inj.Decide(p)
	switch f.Kind {
	case KindNone:
	case KindDelay:
		execute(p, f)
	case KindError, KindCancel:
		panic(&Injected{Point: p, Kind: f.Kind})
	default:
		execute(p, f)
	}
}
