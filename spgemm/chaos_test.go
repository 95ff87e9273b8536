package spgemm

import (
	"context"
	"errors"
	"sync"
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

// TestRetryRecoversFromInjectedPanic arms a one-shot kernel panic and
// requires MxM with a retry budget to absorb it: the second (degraded)
// attempt runs after the trigger has fired, and the result is
// bit-identical to a fault-free run. Without the budget the same fault
// must surface as ErrPanic.
func TestRetryRecoversFromInjectedPanic(t *testing.T) {
	a := RandomGraph("er", 96, 11)
	opts := Defaults()
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Without retry: the injected panic is typed but fatal to the call.
	sd := chaos.NewSeeded(421)
	sd.Arm(chaos.RowKernel, chaos.KindPanic, 3, 0)
	opts.chaos = sd
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("unretried fault: %v, want ErrPanic matching chaos.ErrInjected", err)
	}

	// With a budget: the one-shot trigger fires on attempt one, attempt
	// two (serial rung) completes.
	sd = chaos.NewSeeded(421)
	sd.Arm(chaos.RowKernel, chaos.KindPanic, 3, 0)
	stats := NewStatsRecorder()
	opts.chaos = sd
	opts.Stats = stats
	opts.Retry = Retry{MaxAttempts: 2}
	got, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatalf("retried MxM: %v", err)
	}
	equalResult(t, ref, got, "retried result")
	if sd.Fired(chaos.RowKernel) != 1 {
		t.Fatalf("trigger fired %d times, want 1", sd.Fired(chaos.RowKernel))
	}
	r := stats.Stats().Retry
	if r.Attempts != 2 || r.Retries != 1 || r.Degradations != 1 || r.Failures != 0 {
		t.Fatalf("retry counters = %+v, want 2 attempts / 1 retry / 1 degradation / 0 failures", r)
	}
}

// TestRetryRecoversFromInjectedCancel checks the spurious-cancel
// classification: an injected cancel is retryable (it matches
// chaos.ErrInjected), while a real caller cancel is not retried no
// matter the budget.
func TestRetryRecoversFromInjectedCancel(t *testing.T) {
	a := RandomGraph("er", 96, 12)
	opts := Defaults()
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	sd := chaos.NewSeeded(422)
	sd.Arm(chaos.TileClaim, chaos.KindCancel, 2, 0)
	opts.chaos = sd
	opts.Retry = Retry{MaxAttempts: 2}
	got, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatalf("retried MxM after injected cancel: %v", err)
	}
	equalResult(t, ref, got, "post-cancel result")

	// A real cancellation must come back immediately as ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.chaos = nil
	opts.Context = ctx
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrCanceled) || errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("real cancel: %v, want plain ErrCanceled", err)
	}
}

// TestRetryBudgetExhausted arms a persistent fault and requires the
// loop to stop at the budget with the last typed error and a recorded
// failure.
func TestRetryBudgetExhausted(t *testing.T) {
	a := RandomGraph("er", 64, 13)
	opts := Defaults()
	opts.chaos = chaos.Func(func(p chaos.Point) chaos.Fault {
		if p == chaos.RowKernel {
			return chaos.Fault{Kind: chaos.KindPanic}
		}
		return chaos.Fault{}
	})
	stats := NewStatsRecorder()
	opts.Stats = stats
	opts.Retry = Retry{MaxAttempts: 3}
	_, err := MxM(a, a, a, opts)
	if !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("exhausted retry: %v, want ErrPanic matching chaos.ErrInjected", err)
	}
	r := stats.Stats().Retry
	if r.Attempts != 3 || r.Retries != 2 || r.Failures != 1 {
		t.Fatalf("retry counters = %+v, want 3 attempts / 2 retries / 1 failure", r)
	}
}

// TestStallWatchdogFacade arms a long delay against a short stall
// window and requires the typed verdict — and, with a retry budget, a
// recovered run whose result matches the reference.
func TestStallWatchdogFacade(t *testing.T) {
	a := RandomGraph("er", 96, 14)
	opts := Defaults()
	opts.Workers = 1
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	sd := chaos.NewSeeded(423)
	sd.Arm(chaos.TileClaim, chaos.KindDelay, 1, 400*time.Millisecond)
	opts.chaos = sd
	opts.StallTimeout = 25 * time.Millisecond
	_, err = MxM(a, a, a, opts)
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

	sd = chaos.NewSeeded(423)
	sd.Arm(chaos.TileClaim, chaos.KindDelay, 1, 400*time.Millisecond)
	opts.chaos = sd
	opts.Retry = Retry{MaxAttempts: 2}
	got, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatalf("retried stalled run: %v", err)
	}
	equalResult(t, ref, got, "post-stall result")
}

// TestMxMRetryWithSharedEngine drives MxM's retry ladder on a shared
// engine through a warm repeated product: a one-shot fault is absorbed,
// the poisoned workspace is quarantined (visible in stats and SelfCheck
// still passes), and warm reuse keeps producing bit-identical results.
func TestMxMRetryWithSharedEngine(t *testing.T) {
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
	opts.Retry = Retry{MaxAttempts: 3}
	for i := 0; i < 4; i++ {
		got, err := MxM(a, a, a, opts)
		if err != nil {
			t.Fatalf("multiply %d: %v", i, err)
		}
		equalResult(t, ref, got, "repeated result")
	}
	if sd.Fired(chaos.RowKernel) != 1 {
		t.Fatalf("trigger fired %d times, want 1", sd.Fired(chaos.RowKernel))
	}
	if q := eng.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after recovered faults: %v", err)
	}
}

// TestMxMRetryLadderEscapesFaultingEngine drives MxM down the whole
// retry ladder: its engine panics at every workspace checkout, so
// the configured attempt and the serial rung both fail, and the third
// rung — unpooled, no engine — returns the reference result. The
// stats/v3 retry block records the descent.
func TestMxMRetryLadderEscapesFaultingEngine(t *testing.T) {
	a := RandomGraph("er", 96, 17)
	opts := Defaults()
	ref, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	always := chaos.Func(func(p chaos.Point) chaos.Fault {
		if p == chaos.WorkspaceCheckout {
			return chaos.Fault{Kind: chaos.KindPanic}
		}
		return chaos.Fault{}
	})
	opts.Engine = &Engine{eng: exec.New(exec.Config{Chaos: always})}
	opts.Stats = NewStatsRecorder()
	// No budget: containment types the fault, nothing escapes it.
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("unretried checkout fault: %v, want ErrPanic matching chaos.ErrInjected", err)
	}

	opts.Retry = Retry{MaxAttempts: 3}
	got, err := MxM(a, a, a, opts)
	if err != nil {
		t.Fatalf("laddered MxM: %v", err)
	}
	equalResult(t, ref, got, "unpooled rung")
	r := opts.Stats.Stats().Retry
	if r.Attempts != 3 || r.Retries != 2 || r.Degradations != 2 || r.Failures != 0 {
		t.Fatalf("retry counters = %+v, want 3 attempts / 2 retries / 2 degradations / 0 failures", r)
	}
}

// kernelFaults returns an injector that panics at every row-kernel
// crossing and calls onFire there, and a function that returns when
// each fault fired.
func kernelFaults(onFire func()) (chaos.Injector, func() []time.Time) {
	var mu sync.Mutex
	var at []time.Time
	inj := chaos.Func(func(p chaos.Point) chaos.Fault {
		if p != chaos.RowKernel {
			return chaos.Fault{}
		}
		mu.Lock()
		at = append(at, time.Now())
		mu.Unlock()
		onFire()
		return chaos.Fault{Kind: chaos.KindPanic}
	})
	return inj, func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return at
	}
}

// TestRetryBackoffDoubles times a ladder whose fault never clears: the
// second attempt starts at least Backoff after the first, the third at
// least 2·Backoff after the second. Only lower bounds are asserted, so
// a slow host cannot fail it.
func TestRetryBackoffDoubles(t *testing.T) {
	const backoff = 20 * time.Millisecond
	a := RandomGraph("er", 64, 21)
	opts := Defaults()
	opts.Workers = 1
	opts.Stats = NewStatsRecorder()
	opts.Retry = Retry{MaxAttempts: 3, Backoff: backoff}
	var firings func() []time.Time
	opts.chaos, firings = kernelFaults(func() {})
	if _, err := MxM(a, a, a, opts); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("persistent fault: %v, want ErrPanic matching chaos.ErrInjected", err)
	}
	fired := firings()
	if len(fired) != 3 {
		t.Fatalf("fault fired %d times, want once per attempt (3)", len(fired))
	}
	for i, want := range []time.Duration{backoff, 2 * backoff} {
		if gap := fired[i+1].Sub(fired[i]); gap < want {
			t.Errorf("attempt %d started %v after attempt %d, want at least %v", i+2, gap, i+1, want)
		}
	}
	if r := opts.Stats.Stats().Retry; r.Attempts != 3 || r.Failures != 1 {
		t.Fatalf("retry counters = %+v, want 3 attempts / 1 failure", r)
	}
}

// TestRetryBackoffObservesContext cancels Options.Context while the
// ladder waits out a long backoff: the call returns an error well before
// the backoff ends, and no further attempt runs.
func TestRetryBackoffObservesContext(t *testing.T) {
	const backoff = 10 * time.Second
	a := RandomGraph("er", 64, 23)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Defaults()
	opts.Workers = 1
	opts.Context = ctx
	opts.Stats = NewStatsRecorder()
	opts.Retry = Retry{MaxAttempts: 3, Backoff: backoff}
	var firings func() []time.Time
	opts.chaos, firings = kernelFaults(func() { time.AfterFunc(20*time.Millisecond, cancel) })
	start := time.Now()
	_, err := MxM(a, a, a, opts)
	if elapsed := time.Since(start); elapsed >= backoff {
		t.Fatalf("the ladder returned after %v, at or past the %v backoff", elapsed, backoff)
	}
	if !errors.Is(err, ErrPanic) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want the first attempt's ErrPanic or ErrCanceled", err)
	}
	if r := opts.Stats.Stats().Retry; r.Attempts != 1 || r.Failures != 1 {
		t.Fatalf("retry counters = %+v, want 1 attempt / 1 failure", r)
	}
	if n := len(firings()); n != 1 {
		t.Fatalf("fault fired %d times, want 1", n)
	}
}

// TestRetryBackoffCancelIsErrCanceled: a call whose context is cancelled
// during a retry backoff ends as cancelled, as Options.Context promises —
// the error matches ErrCanceled and the context's own error — and still
// carries the failed attempt's ErrPanic.
func TestRetryBackoffCancelIsErrCanceled(t *testing.T) {
	a := RandomGraph("er", 64, 29)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Defaults()
	opts.Workers = 1
	opts.Context = ctx
	opts.Retry = Retry{MaxAttempts: 3, Backoff: 10 * time.Second}
	opts.chaos, _ = kernelFaults(func() { time.AfterFunc(20*time.Millisecond, cancel) })
	_, err := MxM(a, a, a, opts)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled matching context.Canceled", err)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want the failed attempt's ErrPanic still in the chain", err)
	}
}
