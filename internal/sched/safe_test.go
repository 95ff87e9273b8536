package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunEExactlyOnce(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		for _, p := range []int{1, 2, 4, 7} {
			for _, tiles := range []int{0, 1, 5, 97} {
				hits := make([]atomic.Int32, tiles)
				err := RunWavesE(nil, policy, p, SingleWave(tiles), func(_, t int) {
					hits[t].Add(1)
				})
				if err != nil {
					t.Fatalf("%v p=%d tiles=%d: %v", policy, p, tiles, err)
				}
				for i := range hits {
					if n := hits[i].Load(); n != 1 {
						t.Fatalf("%v p=%d tiles=%d: tile %d ran %d times", policy, p, tiles, i, n)
					}
				}
			}
		}
	}
}

func TestRunEUnknownPolicy(t *testing.T) {
	err := RunWavesE(nil, Policy(99), 2, SingleWave(10), func(_, _ int) {})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunEPanicContained(t *testing.T) {
	type marker struct{ why string }
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		for _, p := range []int{1, 4} {
			err := RunWavesE(nil, policy, p, SingleWave(64), func(_, tile int) {
				if tile == 17 {
					panic(marker{"injected"})
				}
			})
			if err == nil {
				t.Fatalf("%v p=%d: panic not reported", policy, p)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%v p=%d: error %T is not a *PanicError", policy, p, err)
			}
			v, ok := pe.Value.(marker)
			if !ok || v.why != "injected" {
				t.Fatalf("%v p=%d: panic value not preserved: %#v", policy, p, pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("%v p=%d: empty panic stack", policy, p)
			}
		}
	}
}

func TestRunEPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		err := RunWavesE(ctx, policy, 4, SingleWave(100), func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", policy, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("pre-cancelled run executed %d tiles", n)
	}
}

// TestRunEMidRunCancel cancels a run after its tenth tile: every claim
// loop, the one-worker loop included, must poll the stop flag and end
// the run early.
func TestRunEMidRunCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, policy := range []Policy{Static, Dynamic, Guided} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int32
			const tiles = 100000
			err := RunWavesE(ctx, policy, workers, SingleWave(tiles), func(_, _ int) {
				if ran.Add(1) == 10 {
					cancel()
				}
				// Give the watcher time to flip the stop flag so the run
				// demonstrably ends early.
				time.Sleep(10 * time.Microsecond)
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%d workers, %v: err = %v, want context.Canceled", workers, policy, err)
			}
			if n := ran.Load(); int(n) >= tiles {
				t.Fatalf("%d workers, %v: cancellation did not stop the run (%d tiles)", workers, policy, n)
			}
		}
	}
}

func TestRunEPanicWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunWavesE(ctx, Dynamic, 2, SingleWave(8), func(_, tile int) {
		if tile == 0 {
			cancel()
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError (panic outranks cancellation)", err)
	}
}

func TestBlocksECoverage(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 10, 1000} {
			hits := make([]atomic.Int32, n)
			if err := BlocksE(nil, p, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			}); err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, c)
				}
			}
		}
	}
}

func TestBlocksEPanicAndCancel(t *testing.T) {
	err := BlocksE(nil, 4, 100, func(w, _, _ int) {
		if w == 2 {
			panic("block boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "block boom" {
		t.Fatalf("panic value %v not preserved", pe.Value)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := BlocksE(ctx, 4, 100, func(_, _, _ int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunENoGoroutineLeak drives many cancelled and completed runs and
// checks the goroutine count settles back to the baseline: context
// watchers and stall watchdogs may not outlive their run, nor the
// workers' helpers their idle window.
// The live context stays uncancelled until after the check, so a
// watcher must exit because its run completed, not because its context
// ended; the watchdog's hour-long window means it must exit because its
// run released it, not because a tick found the run done. The baseline
// is taken once the helpers of earlier tests have exited: one that
// exited during the check would hide a leaked goroutine.
func TestRunENoGoroutineLeak(t *testing.T) {
	for deadline := time.Now().Add(2*helperIdle + 3*time.Second); ; time.Sleep(20 * time.Millisecond) {
		alive := 0
		for i := range helpers {
			if helpers[i].state.Load() != slotDead {
				alive++
			}
		}
		if alive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers of earlier tests still alive", alive)
		}
	}
	baseline := runtime.NumGoroutine()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = RunWavesE(ctx, Dynamic, 4, SingleWave(64), func(_, tile int) {
			if tile == 5 {
				cancel()
			}
		})
		cancel()
		_ = RunWavesE(context.Background(), Guided, 4, SingleWave(64), func(_, _ int) {})
		_ = RunWavesE(live, Guided, 4, SingleWave(64), func(_, _ int) {})
		_ = RunWavesOpts(nil, Dynamic, 4, SingleWave(64), RunOpts{StallTimeout: time.Hour}, func(_, _ int) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestBlocksEOneWorker pins BlocksE's one-worker path to the inline
// run: with a nil context, of a function that captures nothing, it
// allocates nothing, and its error
// precedence is the worker path's — a panic (as *PanicError from worker
// 0) wins over a context its block cancelled, which is reported over a
// clean finish.
func TestBlocksEOneWorker(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if err := BlocksE(nil, 1, 100, func(_, _, _ int) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-worker BlocksE allocates %.1f times, want 0", allocs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := BlocksE(ctx, 1, 10, func(_, _, _ int) { cancel() }); !errors.Is(err, context.Canceled) {
		t.Errorf("block cancelling its context: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	err := BlocksE(ctx, 1, 10, func(_, _, _ int) {
		cancel()
		panic("one-worker boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "one-worker boom" || pe.Worker != 0 {
		t.Errorf("panic after cancel: err = %v, want the *PanicError of worker 0", err)
	}
	ran := false
	if err := BlocksE(nil, 1, 0, func(_, _, _ int) { ran = true }); err != nil || ran {
		t.Errorf("empty range: err = %v, ran %v; want nil and no block", err, ran)
	}
}
