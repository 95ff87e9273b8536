package spgemm

import (
	"context"
	"errors"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
)

// equalResult compares two result matrices bit-for-bit.
func equalResult(t *testing.T, want, got *Matrix, label string) {
	t.Helper()
	if !want.Equal(got) {
		t.Fatalf("%s: result differs from reference", label)
	}
}

// TestMxMInjectedPanic arms a one-shot kernel panic on the default
// (unshared) engine: the call returns a typed ErrPanic that matches the
// injected fault, and the next fault-free call is bit-identical to the
// reference.
func TestMxMInjectedPanic(t *testing.T) {
	a := RandomGraph("er", 96, 11)
	opts := Defaults()
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	sd := chaos.NewSeeded(421)
	sd.Arm(chaos.RowKernel, chaos.KindPanic, 3, 0)
	opts.chaos = sd
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("injected panic: %v, want ErrPanic matching chaos.ErrInjected", err)
	}
	if sd.Fired(chaos.RowKernel) != 1 {
		t.Fatalf("trigger fired %d times, want 1", sd.Fired(chaos.RowKernel))
	}
	opts.chaos = nil
	got, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatalf("multiply after the fault: %v", err)
	}
	equalResult(t, ref, got, "result after the fault")
}

// TestMxMInjectedCancel tells the two cancels apart at the facade: an
// injected claim cancel is ErrCanceled matching chaos.ErrInjected, and
// a real caller cancel is ErrCanceled that does not.
func TestMxMInjectedCancel(t *testing.T) {
	a := RandomGraph("er", 96, 12)
	opts := Defaults()
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	sd := chaos.NewSeeded(422)
	sd.Arm(chaos.TileClaim, chaos.KindCancel, 2, 0)
	opts.chaos = sd
	_, err = MxM(a, a, a, opts)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, chaos.ErrInjected) || errors.Is(err, ErrPanic) {
		t.Fatalf("injected cancel: %v, want ErrCanceled matching chaos.ErrInjected", err)
	}
	if sd.Fired(chaos.TileClaim) != 1 {
		t.Fatalf("trigger fired %d times, want 1", sd.Fired(chaos.TileClaim))
	}
	opts.chaos = nil
	got, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatalf("multiply after the injected cancel: %v", err)
	}
	equalResult(t, ref, got, "result after the injected cancel")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrCanceled) || errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("real cancel: %v, want plain ErrCanceled", err)
	}
}

// TestStallWatchdogFacade arms a long delay against a short stall
// window and requires the typed verdict with the goroutine stacks.
func TestStallWatchdogFacade(t *testing.T) {
	a := RandomGraph("er", 96, 14)
	opts := Defaults()
	opts.Workers = 1
	sd := chaos.NewSeeded(423)
	sd.Arm(chaos.TileClaim, chaos.KindDelay, 1, 400*time.Millisecond)
	opts.chaos = sd
	opts.StallTimeout = 25 * time.Millisecond
	_, err := MxM(a, a, a, opts)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled run: %v, want ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("chain lacks *StallError: %v", err)
	}
	if len(se.Stacks) == 0 {
		t.Fatal("stall verdict carries no goroutine stacks")
	}
}

// TestMxMFaultOnSharedEngine drives a warm repeated product on a shared
// engine through one injected fault: the faulted call returns a typed
// ErrPanic, the workspace it touched is quarantined (visible in stats,
// and SelfCheck still passes), and every later call on the same engine
// is bit-identical to a fault-free run.
func TestMxMFaultOnSharedEngine(t *testing.T) {
	a := RandomGraph("er", 96, 15)
	eng := NewEngine(EngineConfig{})
	opts := Defaults()
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	sd := chaos.NewSeeded(424)
	sd.Arm(chaos.RowKernel, chaos.KindPressure, 4, 0)
	opts.Engine = eng
	opts.chaos = sd
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("faulted multiply: %v, want ErrPanic matching chaos.ErrInjected", err)
	}
	if sd.Fired(chaos.RowKernel) != 1 {
		t.Fatalf("trigger fired %d times, want 1", sd.Fired(chaos.RowKernel))
	}
	if q := eng.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after the fault: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := MxM(a, a, a, opts)
		if err != nil {
			t.Fatalf("multiply %d after the fault: %v", i, err)
		}
		equalResult(t, ref, got, "repeated result")
	}
	if q := eng.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantines after clean reruns = %d, want 1", q)
	}
}

// TestMxMFaultingEngineCheckout runs MxM on an engine that panics at
// every workspace checkout: containment types the fault, and nothing
// escapes it.
func TestMxMFaultingEngineCheckout(t *testing.T) {
	a := RandomGraph("er", 96, 17)
	always := chaos.Func(func(p chaos.Point) chaos.Fault {
		if p == chaos.WorkspaceCheckout {
			return chaos.Fault{Kind: chaos.KindPanic}
		}
		return chaos.Fault{}
	})
	opts := Defaults()
	opts.Engine = &Engine{eng: exec.New(exec.Config{Chaos: always})}
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("checkout fault: %v, want ErrPanic matching chaos.ErrInjected", err)
	}
}
