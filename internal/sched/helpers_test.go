package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// TestWarmRunsSpawnNothing: once a run's helpers exist, later runs on
// as many workers hand every worker to a parked helper — the wave
// executor and BlocksE alike start no goroutine.
func TestWarmRunsSpawnNothing(t *testing.T) {
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			var ran atomic.Int64
			run := func() {
				if err := RunWavesE(nil, Dynamic, p, SingleWave(64), func(_, _ int) { ran.Add(1) }); err != nil {
					t.Fatal(err)
				}
				if err := BlocksE(nil, p, 64, func(_, lo, hi int) { ran.Add(int64(hi - lo)) }); err != nil {
					t.Fatal(err)
				}
			}
			run()
			before := helperSpawns.Load()
			for range 100 {
				run()
			}
			if got := helperSpawns.Load() - before; got != 0 {
				t.Errorf("100 warm runs on %d workers started %d goroutines, want 0", p, got)
			}
			if got := ran.Load(); got != 101*128 {
				t.Errorf("ran %d tiles and block rows, want %d", got, 101*128)
			}
		})
	}
}

// TestHelpersExitWhenIdle: a helper outlives its last task by at most
// two idle windows, so every slot empties and the goroutines go.
func TestHelpersExitWhenIdle(t *testing.T) {
	if err := RunWavesE(nil, Dynamic, 4, SingleWave(16), func(_, _ int) {}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2*helperIdle + 3*time.Second)
	for time.Now().Before(deadline) {
		alive := 0
		for i := range helpers {
			if helpers[i].state.Load() != slotDead {
				alive++
			}
		}
		if alive == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("helpers still alive two idle windows after their last task")
}

// TestParkedHelperDropsTask: a helper parked after its task holds
// nothing of the run, so what the run's tiles captured is garbage once
// the run returns.
func TestParkedHelperDropsTask(t *testing.T) {
	for _, blocks := range []bool{false, true} {
		run := func() weak.Pointer[[1024]byte] {
			state := new([1024]byte)
			var err error
			if blocks {
				err = BlocksE(nil, 2, 8, func(_, lo, _ int) { state[lo]++ })
			} else {
				err = RunWavesE(nil, Dynamic, 2, SingleWave(8), func(_, tile int) { state[tile]++ })
			}
			if err != nil {
				t.Fatal(err)
			}
			return weak.Make(state)
		}
		state := run()
		runtime.GC()
		runtime.GC()
		if state.Value() != nil {
			t.Errorf("blocks=%v: a parked helper keeps its last run's tile state alive", blocks)
		}
	}
}

// TestPanicKeepsHelpers: a panicking tile is contained inside its
// worker, so the helper survives it and the next runs reuse it.
func TestPanicKeepsHelpers(t *testing.T) {
	noop := func(_, _ int) {}
	if err := RunWavesE(nil, Dynamic, 2, SingleWave(8), noop); err != nil {
		t.Fatal(err)
	}
	before := helperSpawns.Load()
	err := RunWavesE(nil, Static, 2, SingleWave(8), func(_, tile int) {
		if tile == 3 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("err = %v, want a PanicError carrying boom", err)
	}
	for range 10 {
		if err := RunWavesE(nil, Dynamic, 2, SingleWave(8), noop); err != nil {
			t.Fatal(err)
		}
	}
	if got := helperSpawns.Load() - before; got != 0 {
		t.Errorf("a panic and ten runs after it started %d goroutines, want 0", got)
	}
}

// TestGoexitInTileReleasesRun: a tile that leaves by runtime.Goexit
// (t.FailNow from a worker) takes its helper with it, but still
// releases the run and the slot, and the next run completes.
func TestGoexitInTileReleasesRun(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- RunWavesE(nil, Static, 2, SingleWave(2), func(_, tile int) {
			if tile == 1 {
				runtime.Goexit()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a run whose tile called runtime.Goexit never returned")
	}
	var hits atomic.Int64
	if err := RunWavesE(nil, Dynamic, 2, SingleWave(32), func(_, _ int) { hits.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 32 {
		t.Errorf("run after the Goexit ran %d of 32 tiles", got)
	}
}

// TestMoreWorkersThanHelpers: workers past the helper slots run on
// plain goroutines, and runs nested in tiles find helpers of their own;
// spawn never waits for a busy helper. Every worker of the wide run
// holds its tile until all of them have started, which only completes
// if they all run at once.
func TestMoreWorkersThanHelpers(t *testing.T) {
	t.Run("wide", func(t *testing.T) {
		p := maxHelpers + 8
		var started sync.WaitGroup
		started.Add(p)
		all := make(chan struct{})
		go func() { started.Wait(); close(all) }()
		var stuck atomic.Bool
		err := RunWavesE(nil, Static, p, SingleWave(p), func(_, _ int) {
			started.Done()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				stuck.Store(true)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if stuck.Load() {
			t.Fatalf("%d workers did not all run at once", p)
		}
	})
	t.Run("nested", func(t *testing.T) {
		var hits atomic.Int64
		err := RunWavesE(nil, Dynamic, 2, SingleWave(4), func(_, _ int) {
			if err := RunWavesE(nil, Dynamic, 2, SingleWave(16), func(_, _ int) { hits.Add(1) }); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := hits.Load(); got != 64 {
			t.Errorf("nested runs ran %d of 64 tiles", got)
		}
	})
}
