package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
)

// TestInjectedClaimCancel arms a spurious cancel on a tile claim under
// every policy: the run must fail with an error matching both
// context.Canceled (so existing dispatch treats it as a cancel) and
// chaos.ErrInjected (so a test can tell it from a caller's cancel),
// and run exactly the tiles claimed before the fault.
func TestInjectedClaimCancel(t *testing.T) {
	const nth = 3
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		sd := chaos.NewSeeded(401)
		sd.Arm(chaos.TileClaim, chaos.KindCancel, nth, 0)
		var ran atomic.Int64
		err := RunWavesOpts(context.Background(), policy, 2, SingleWave(64), RunOpts{Chaos: sd},
			func(worker, tile int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled match", policy, err)
		}
		if !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("%v: err = %v, want chaos.ErrInjected match", policy, err)
		}
		if sd.Fired(chaos.TileClaim) != 1 {
			t.Fatalf("%v: trigger fired %d times, want 1", policy, sd.Fired(chaos.TileClaim))
		}
		if n := ran.Load(); n != nth-1 {
			t.Fatalf("%v: %d tiles ran around an injected cancel at claim %d, want %d", policy, n, nth, nth-1)
		}
	}
}

// TestInjectedSpawnPanic arms a panic on a worker's spawn seam: the
// guard frame must contain it into a *PanicError that unwraps to the
// injected fault.
func TestInjectedSpawnPanic(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		sd := chaos.NewSeeded(402)
		sd.Arm(chaos.WorkerSpawn, chaos.KindPanic, 2, 0)
		err := RunWavesOpts(context.Background(), policy, 4, SingleWave(32), RunOpts{Chaos: sd},
			func(worker, tile int) {})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: err = %v, want *PanicError", policy, err)
		}
		if !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("%v: contained panic lost the injected-fault chain: %v", policy, err)
		}
	}
}

// TestStallWatchdogVerdict blocks the sole worker far past the stall
// window and requires a *StallError verdict carrying goroutine stacks
// and an accurate progress count. The watchdog detects rather than
// preempts, so the run only returns once the worker unblocks — the
// timer below plays the stuck resource coming back.
func TestStallWatchdogVerdict(t *testing.T) {
	release := make(chan struct{})
	go func() {
		time.Sleep(250 * time.Millisecond)
		close(release)
	}()
	var entered atomic.Bool
	err := RunWavesOpts(context.Background(), Static, 1, SingleWave(8),
		RunOpts{StallTimeout: 20 * time.Millisecond},
		func(worker, tile int) {
			if entered.CompareAndSwap(false, true) {
				<-release
			}
		})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Done != 0 || se.Tiles != 8 {
		t.Fatalf("verdict progress %d/%d, want 0/8", se.Done, se.Tiles)
	}
	if len(se.Stacks) == 0 {
		t.Fatal("verdict carries no goroutine stacks")
	}
	if se.Timeout != 20*time.Millisecond {
		t.Fatalf("verdict timeout %v, want 20ms", se.Timeout)
	}
}

// TestStallWatchdogQuietOnProgress runs steadily-progressing work under
// an armed watchdog: the run must complete with every tile executed
// exactly once and no verdict.
func TestStallWatchdogQuietOnProgress(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		seen := make([]atomic.Int32, 96)
		err := RunWavesOpts(context.Background(), policy, 4, SingleWave(len(seen)),
			RunOpts{StallTimeout: time.Second},
			func(worker, tile int) { seen[tile].Add(1) })
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("%v: tile %d ran %d times", policy, i, got)
			}
		}
	}
}

// TestStallWatchdogAfterLastTile arms the watchdog on a run whose every
// tile is done but whose workers never return (its finish is never
// called), as when a claim loop spins past the wave's end. The first
// tick sees progress from zero, the second none: the verdict must come
// at two windows with Done == Tiles and the stop flag raised. The
// deadline adds scheduling slack to the two windows.
func TestStallWatchdogAfterLastTile(t *testing.T) {
	const tiles, window = 8, 20 * time.Millisecond
	var st run
	st.done.Store(tiles)
	st.watchStall(window, tiles, 1)
	deadline := time.Now().Add(2*window + time.Second)
	for !st.stop.Load() {
		if time.Now().After(deadline) {
			t.Fatal("no stall verdict on a run that finished its tiles but never returned")
		}
		time.Sleep(time.Millisecond)
	}
	st.mu.Lock()
	se := st.se
	st.mu.Unlock()
	if se == nil {
		t.Fatal("stop raised with no verdict recorded")
	}
	if se.Done != tiles || se.Tiles != tiles {
		t.Fatalf("verdict progress %d/%d, want %d/%d", se.Done, se.Tiles, tiles, tiles)
	}
}

// TestRunOptsZeroMatchesRunChunkedE checks that the zero options block
// is a plain contained run (what RunWavesE runs): complete coverage, no
// error.
func TestRunOptsZeroMatchesRunChunkedE(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		seen := make([]atomic.Int32, 40)
		if err := RunWavesOpts(context.Background(), policy, 3, SingleWave(len(seen)), RunOpts{},
			func(worker, tile int) { seen[tile].Add(1) }); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("%v: tile %d ran %d times", policy, i, got)
			}
		}
	}
}

// TestPanicErrorUnwrap pins the Unwrap contract: error panic values
// join the chain, non-error values do not.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	if pe := (&PanicError{Value: sentinel}); !errors.Is(pe, sentinel) {
		t.Fatal("error panic value not reachable through Unwrap")
	}
	if pe := (&PanicError{Value: "plain string"}); pe.Unwrap() != nil {
		t.Fatal("non-error panic value unexpectedly unwraps")
	}
}
