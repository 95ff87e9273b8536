package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
)

// stairPlan builds a multi-wave plan with uneven widths (1, 3, 8, 2,
// ...) so every policy's claim path and the barrier reset both get
// exercised by narrow and wide levels alike.
func stairPlan(t *testing.T, widths []int) WavePlan {
	t.Helper()
	var waves []Wave
	lo := 0
	for _, w := range widths {
		waves = append(waves, Wave{Lo: lo, Hi: lo + w})
		lo += w
	}
	pl, err := NewWavePlan(waves)
	if err != nil {
		t.Fatalf("NewWavePlan(%v): %v", widths, err)
	}
	return pl
}

// waveOf maps each tile of the plan to its wave index.
func waveOf(pl WavePlan) []int {
	m := make([]int, pl.Tiles())
	for i := 0; i < pl.NumWaves(); i++ {
		w := pl.WaveAt(i)
		for t := w.Lo; t < w.Hi; t++ {
			m[t] = i
		}
	}
	return m
}

func TestWavePlanValidation(t *testing.T) {
	cases := []struct {
		name  string
		waves []Wave
	}{
		{"gap", []Wave{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 5}}},
		{"overlap", []Wave{{Lo: 0, Hi: 3}, {Lo: 2, Hi: 5}}},
		{"empty wave", []Wave{{Lo: 0, Hi: 0}}},
		{"nonzero start", []Wave{{Lo: 1, Hi: 4}}},
		{"inverted", []Wave{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 1}}},
	}
	for _, tc := range cases {
		if _, err := NewWavePlan(tc.waves); err == nil {
			t.Errorf("%s: NewWavePlan(%v) accepted an invalid plan", tc.name, tc.waves)
		}
	}

	pl := stairPlan(t, []int{1, 3, 8, 2})
	if pl.Tiles() != 14 || pl.NumWaves() != 4 || pl.Widest() != 8 {
		t.Fatalf("stair plan: tiles=%d waves=%d widest=%d, want 14/4/8", pl.Tiles(), pl.NumWaves(), pl.Widest())
	}
	if w := pl.WaveAt(2); w.Lo != 4 || w.Hi != 12 || w.Tiles() != 8 {
		t.Fatalf("WaveAt(2) = %+v, want [4,12)", w)
	}

	empty, err := NewWavePlan(nil)
	if err != nil {
		t.Fatalf("NewWavePlan(nil): %v", err)
	}
	if empty.Tiles() != 0 || empty.NumWaves() != 0 || empty.Widest() != 0 {
		t.Fatalf("empty plan: %+v", empty)
	}

	if sw := SingleWave(-3); sw.Tiles() != 0 || sw.NumWaves() != 0 {
		t.Fatalf("SingleWave(-3) = %+v, want empty", sw)
	}
	if sw := SingleWave(5); sw.NumWaves() != 1 || sw.WaveAt(0) != (Wave{Lo: 0, Hi: 5}) || sw.Widest() != 5 {
		t.Fatalf("SingleWave(5) = %+v", sw)
	}
}

// TestRunWavesOrdering is the executor's core contract: no tile of wave
// k starts before every tile of wave k-1 has completed, under every
// policy and both the serial and parallel paths, while each tile still
// runs exactly once.
func TestRunWavesOrdering(t *testing.T) {
	widths := []int{1, 7, 16, 3, 9, 1, 5}
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		for _, workers := range []int{1, 2, 4, 9} {
			pl := stairPlan(t, widths)
			wv := waveOf(pl)
			counts := make([]atomic.Int32, pl.Tiles())
			done := make([]atomic.Int64, pl.NumWaves())
			var violations atomic.Int64
			check(t, RunWavesE(nil, policy, workers, pl, func(_, tile int) {
				w := wv[tile]
				if w > 0 && done[w-1].Load() != int64(pl.WaveAt(w-1).Tiles()) {
					violations.Add(1)
				}
				counts[tile].Add(1)
				done[w].Add(1)
			}))
			if v := violations.Load(); v != 0 {
				t.Errorf("%v/p=%d: %d tiles started before their predecessor wave finished", policy, workers, v)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("%v/p=%d: tile %d ran %d times", policy, workers, i, got)
				}
			}
		}
	}
}

// TestRunWavesStaticOwnership pins the cross-wave Static invariant: tile
// t always runs on worker t mod p, in every wave, exactly as in a flat
// Run.
func TestRunWavesStaticOwnership(t *testing.T) {
	const workers = 3
	pl := stairPlan(t, []int{4, 1, 7, 5, 3})
	owner := make([]atomic.Int32, pl.Tiles())
	check(t, RunWavesE(nil, Static, workers, pl, func(w, tile int) {
		owner[tile].Store(int32(w + 1))
	}))
	for tile := range owner {
		if got := int(owner[tile].Load()) - 1; got != tile%workers {
			t.Errorf("tile %d ran on worker %d, want %d", tile, got, tile%workers)
		}
	}
}

// TestRunWavesSingleWaveIsFlat checks the degenerate plan every flat
// tile bag runs as: once-each coverage and zero barrier crossings — the
// flat bag pays nothing for the wave machinery.
func TestRunWavesSingleWaveIsFlat(t *testing.T) {
	const tiles, workers = 57, 4
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		var sum atomic.Int64
		var ws WaveStats
		err := RunWavesOpts(nil, policy, workers, SingleWave(tiles), RunOpts{WaveStats: &ws}, func(_, tile int) {
			sum.Add(int64(tile) + 1)
		})
		if err != nil {
			t.Fatalf("%v: RunWavesOpts: %v", policy, err)
		}
		if want := int64(tiles * (tiles + 1) / 2); sum.Load() != want {
			t.Errorf("%v: single-wave tile sum %d, want %d (each tile once)", policy, sum.Load(), want)
		}
		if ws.Crossings.Load() != 0 {
			t.Errorf("%v: single-wave run recorded %d barrier crossings, want 0", policy, ws.Crossings.Load())
		}
	}
}

func TestRunWavesEmptyPlan(t *testing.T) {
	ran := false
	if err := RunWavesE(context.Background(), Dynamic, 4, WavePlan{}, func(_, _ int) { ran = true }); err != nil {
		t.Fatalf("empty plan: %v", err)
	}
	if ran {
		t.Fatal("empty plan executed a tile")
	}
}

func TestRunWavesUnknownPolicy(t *testing.T) {
	if err := RunWavesOpts(nil, Policy(42), 2, SingleWave(4), RunOpts{}, func(_, _ int) {}); err == nil {
		t.Fatal("RunWavesOpts accepted an unknown policy")
	}
}

// TestRunWavesStats checks the observability counters: every effective
// worker records one crossing per wave boundary, and stragglers park
// long enough for the barrier-wait clock to tick.
func TestRunWavesStats(t *testing.T) {
	const workers = 4
	pl := stairPlan(t, []int{workers, workers, workers})
	var ws WaveStats
	err := RunWavesOpts(nil, Dynamic, workers, pl, RunOpts{WaveStats: &ws}, func(_, tile int) {
		// One straggler per wave: the other workers must park at the
		// barrier and accumulate wait time.
		if tile%workers == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("RunWavesOpts: %v", err)
	}
	wantCross := int64(workers * (pl.NumWaves() - 1))
	if got := ws.Crossings.Load(); got != wantCross {
		t.Errorf("Crossings = %d, want %d", got, wantCross)
	}
	if ws.BarrierWaitNs.Load() <= 0 {
		t.Errorf("BarrierWaitNs = %d, want > 0 with a straggler per wave", ws.BarrierWaitNs.Load())
	}
}

// TestRunWavesPanic contains a panic raised mid-plan: RunWavesE returns
// a *PanicError carrying the value, parked workers drain instead of
// deadlocking, and no tile of a later wave starts after containment.
func TestRunWavesPanic(t *testing.T) {
	pl := stairPlan(t, []int{4, 4, 4})
	wv := waveOf(pl)
	boom := errors.New("tile exploded")
	var lastWaveRan atomic.Bool
	err := RunWavesE(context.Background(), Dynamic, 4, pl, func(_, tile int) {
		if wv[tile] == 2 {
			lastWaveRan.Store(true)
		}
		if wv[tile] == 1 {
			panic(boom)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != boom {
		t.Fatalf("PanicError.Value = %v, want %v", pe.Value, boom)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PanicError does not unwrap to its error value: %v", err)
	}
	if lastWaveRan.Load() {
		t.Fatal("a tile of the wave after the panic still ran")
	}
}

func TestRunWavesPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunWavesE(ctx, Guided, 4, stairPlan(t, []int{8, 8}), func(_, _ int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("pre-cancelled run executed a tile")
	}
}

func TestRunWavesCancelMidRun(t *testing.T) {
	pl := stairPlan(t, []int{4, 4, 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	err := RunWavesE(ctx, Dynamic, 4, pl, func(_, tile int) {
		if tile == 1 && !fired.Swap(true) {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunWavesStallNamesWave blocks a tile of the middle wave past the
// watchdog window: the verdict must be a *StallError naming that wave.
// The serial path keeps the timing deterministic.
func TestRunWavesStallNamesWave(t *testing.T) {
	pl := stairPlan(t, []int{2, 2, 2})
	wv := waveOf(pl)
	unblock := make(chan struct{})
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(unblock)
	}()
	err := RunWavesOpts(nil, Static, 1, pl, RunOpts{StallTimeout: 30 * time.Millisecond}, func(_, tile int) {
		if wv[tile] == 1 && tile == pl.WaveAt(1).Lo {
			<-unblock
		}
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Wave != 1 || se.Waves != int64(pl.NumWaves()) {
		t.Errorf("StallError names wave %d of %d, want 1 of %d", se.Wave, se.Waves, pl.NumWaves())
	}
	if se.Done >= se.Tiles {
		t.Errorf("StallError reports %d/%d tiles done, want partial progress", se.Done, se.Tiles)
	}
	if len(se.Stacks) == 0 {
		t.Error("StallError carries no goroutine stacks")
	}
}

// TestRunWavesBarrierChaos exercises the WaveBarrier seam under every
// fault kind: cancel and panic drain the parked workers with a typed
// error, delay is absorbed with every tile still run exactly once.
func TestRunWavesBarrierChaos(t *testing.T) {
	const workers = 4
	newPlan := func() WavePlan { return stairPlan(t, []int{workers, workers, workers}) }

	t.Run("cancel", func(t *testing.T) {
		for _, policy := range []Policy{Static, Dynamic, Guided} {
			sd := chaos.NewSeeded(99)
			sd.Arm(chaos.WaveBarrier, chaos.KindCancel, 1, 0)
			err := RunWavesOpts(nil, policy, workers, newPlan(), RunOpts{Chaos: sd}, func(_, _ int) {})
			if !errors.Is(err, chaos.ErrInjected) || !errors.Is(err, context.Canceled) {
				t.Errorf("%v: err = %v, want chaos.ErrInjected and context.Canceled in the chain", policy, err)
			}
			if sd.Fired(chaos.WaveBarrier) != 1 {
				t.Errorf("%v: barrier seam fired %d times, want 1", policy, sd.Fired(chaos.WaveBarrier))
			}
		}
	})

	t.Run("panic", func(t *testing.T) {
		sd := chaos.NewSeeded(100)
		sd.Arm(chaos.WaveBarrier, chaos.KindPanic, 2, 0)
		err := RunWavesOpts(nil, Dynamic, workers, newPlan(), RunOpts{Chaos: sd}, func(_, _ int) {})
		var pe *PanicError
		if !errors.As(err, &pe) || !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("err = %v, want *PanicError in the chaos.ErrInjected chain", err)
		}
	})

	t.Run("delay", func(t *testing.T) {
		pl := newPlan()
		sd := chaos.NewSeeded(101)
		sd.Arm(chaos.WaveBarrier, chaos.KindDelay, 3, time.Millisecond)
		counts := make([]atomic.Int32, pl.Tiles())
		err := RunWavesOpts(nil, Guided, workers, pl, RunOpts{Chaos: sd}, func(_, tile int) {
			counts[tile].Add(1)
		})
		if err != nil {
			t.Fatalf("delay fault was not absorbed: %v", err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("tile %d ran %d times after an absorbed delay", i, got)
			}
		}
		if sd.Fired(chaos.WaveBarrier) != 1 {
			t.Errorf("barrier seam fired %d times, want 1", sd.Fired(chaos.WaveBarrier))
		}
	})
}

// TestOneWorkerErrorClasses runs each fault on the inline one-worker
// path and on two workers: both must report the same error class. On
// one worker the order is also exact: no tile starts after the tile
// that panicked or cancelled its own run.
func TestOneWorkerErrorClasses(t *testing.T) {
	const tiles, k = 16, 5
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d/panic", p), func(t *testing.T) {
			var after atomic.Bool
			err := RunWavesE(nil, Dynamic, p, SingleWave(tiles), func(_, tile int) {
				if tile == k {
					panic("boom")
				}
				if tile > k && p == 1 {
					after.Store(true)
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "boom" {
				t.Fatalf("err = %v, want *PanicError carrying the panic value", err)
			}
			if p == 1 && pe.Worker != 0 {
				t.Errorf("PanicError.Worker = %d, want 0", pe.Worker)
			}
			if after.Load() {
				t.Error("a tile after the panicking one ran")
			}
		})
		t.Run(fmt.Sprintf("p=%d/cancel-in-tile", p), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var last atomic.Int64
			err := RunWavesE(ctx, Dynamic, p, SingleWave(tiles), func(_, tile int) {
				last.Store(int64(tile))
				if tile == k {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if p == 1 && last.Load() != k {
				t.Errorf("tile %d ran after tile %d cancelled the run", last.Load(), k)
			}
		})
		for _, pt := range []chaos.Point{chaos.TileClaim, chaos.WorkerSpawn} {
			t.Run(fmt.Sprintf("p=%d/injected-%v", p, pt), func(t *testing.T) {
				sd := chaos.NewSeeded(403)
				sd.Arm(pt, chaos.KindCancel, 1, 0)
				err := RunWavesOpts(nil, Guided, p, SingleWave(tiles), RunOpts{Chaos: sd}, func(_, _ int) {})
				if !errors.Is(err, chaos.ErrInjected) || !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want chaos.ErrInjected and context.Canceled in the chain", err)
				}
				if sd.Fired(pt) != 1 {
					t.Errorf("seam fired %d times, want 1", sd.Fired(pt))
				}
			})
		}
		t.Run(fmt.Sprintf("p=%d/stall", p), func(t *testing.T) {
			unblock := make(chan struct{})
			go func() {
				time.Sleep(150 * time.Millisecond)
				close(unblock)
			}()
			err := RunWavesOpts(nil, Static, p, SingleWave(tiles), RunOpts{StallTimeout: 20 * time.Millisecond},
				func(_, tile int) {
					if tile == k {
						<-unblock
					}
				})
			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StallError", err)
			}
		})
	}
}

// TestOneWorkerRunAllocs pins the inline path's state to the caller's
// stack: a one-worker run without a context or watchdog, of a function
// that captures nothing, allocates nothing.
func TestOneWorkerRunAllocs(t *testing.T) {
	plan := SingleWave(8)
	allocs := testing.AllocsPerRun(100, func() {
		if err := RunWavesOpts(nil, Dynamic, 1, plan, RunOpts{}, func(_, _ int) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-worker run allocates %.1f times, want 0", allocs)
	}
}

// TestWarmRunAllocs pins a multi-worker run to one object: once its
// helpers are parked, a run of a function that captures nothing
// allocates its run value and nothing else, whatever the policy and
// worker count, with or without barriers to cross. A BlocksE call adds
// at most the tile function that adapts its block function.
func TestWarmRunAllocs(t *testing.T) {
	noop := func(_, _ int) {}
	waves := make([]Wave, 4)
	for i := range waves {
		waves[i] = Wave{Lo: 8 * i, Hi: 8 * (i + 1)}
	}
	multi, err := NewWavePlan(waves)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		for _, plan := range []WavePlan{SingleWave(32), multi} {
			for _, policy := range []Policy{Static, Dynamic, Guided} {
				allocs := testing.AllocsPerRun(100, func() {
					if err := RunWavesOpts(nil, policy, p, plan, RunOpts{}, noop); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 1 {
					t.Errorf("p=%d, %d waves, %v: a warm run allocates %.1f times, want 1", p, plan.NumWaves(), policy, allocs)
				}
			}
		}
	}
	for _, p := range []int{2, 3, 4, 8} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := BlocksE(nil, p, 64, func(_, _, _ int) {}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("p=%d: a warm BlocksE allocates %.1f times, want at most 2", p, allocs)
		}
	}
}
