package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"maskedspgemm/internal/chaos"
)

// This file holds the resilience extras of RunWavesOpts: the options
// block, the injected-cancel plumbing, and the stall watchdog. The
// design constraint throughout is that a disabled option costs nothing
// on the hot path — a nil injector is one pointer comparison per tile,
// and a zero stall timeout spawns no goroutine and skips the completed-
// tile counter entirely.

// RunOpts carries the optional knobs of RunWavesOpts. The zero value is
// a plain contained run.
type RunOpts struct {
	// Chaos, when non-nil, is consulted at the TileClaim seam before
	// every tile and at the WorkerSpawn seam once per worker. Error and
	// Cancel faults become a recorded spurious cancel; Panic faults
	// surface as *PanicError through the normal containment path.
	Chaos chaos.Injector
	// StallTimeout, when positive, arms a watchdog that fails the run
	// with a *StallError if no tile completes for a full timeout before
	// the run returns. It detects, not preempts: a worker stuck inside fn
	// still holds the run until it returns, but the error is typed and
	// carries the stacks of every goroutine for diagnosis.
	StallTimeout time.Duration
	// WaveStats, when non-nil, accumulates wave-executor counters
	// (barrier crossings, cumulative barrier-wait time) across the run's
	// workers. The caller owns the struct and may share it across runs;
	// nil skips all accounting.
	WaveStats *WaveStats
}

// StallError reports a run whose workers stopped completing tiles for a
// full StallTimeout before the run returned (Done == Tiles if every tile
// was done). Stacks holds a snapshot of all goroutine stacks taken at
// detection time, so the stuck worker's position is preserved even if
// it later unblocks.
type StallError struct {
	// Timeout is the configured stall window that elapsed.
	Timeout time.Duration
	// Done and Tiles are the completed-tile count at detection and the
	// run's total.
	Done, Tiles int64
	// Wave and Waves are the index of the wave in progress at detection
	// and the plan's wave count, so a dependency-carrying run's verdict
	// names the stuck wave. Flat single-wave runs report 0 and 1.
	Wave, Waves int64
	// Stacks is the formatted all-goroutine stack dump at detection.
	Stacks []byte
}

func (e *StallError) Error() string {
	if e.Waves > 1 {
		return fmt.Sprintf("sched: no tile progress for %v (%d/%d tiles done, stuck in wave %d of %d)",
			e.Timeout, e.Done, e.Tiles, e.Wave, e.Waves)
	}
	return fmt.Sprintf("sched: no tile progress for %v (%d/%d tiles done)", e.Timeout, e.Done, e.Tiles)
}

// stall records a watchdog verdict and tells every worker to drain.
func (r *run) stall(se *StallError) {
	r.mu.Lock()
	if r.se == nil {
		r.se = se
	}
	r.mu.Unlock()
	r.halt()
}

// seamFault steps inj at seam pt and returns the injected spurious
// cancel an Error or Cancel fault becomes; nil for any other outcome
// (panic and delay faults execute inside chaos.Step). The cancel
// matches both chaos.ErrInjected and context.Canceled under errors.Is,
// so callers can tell it from a genuine cancel.
func seamFault(inj chaos.Injector, pt chaos.Point) error {
	switch chaos.Step(inj, pt) {
	case chaos.KindError, chaos.KindCancel:
		return fmt.Errorf("sched: injected spurious cancel at %v: %w",
			pt, errors.Join(chaos.ErrInjected, context.Canceled))
	}
	return nil
}

// inject fires seam pt of the run's injector; true means the worker
// must drain: an Error or Cancel fault became the run's cause (the
// first one recorded wins) and stopped it, or the run is stopping
// anyway. Panic and delay faults execute inside chaos.Step (the panic
// is caught by the recover frame of run.work).
func (r *run) inject(pt chaos.Point) bool {
	if r.opt.Chaos == nil {
		return false
	}
	if err := seamFault(r.opt.Chaos, pt); err != nil {
		r.mu.Lock()
		if r.cause == nil {
			r.cause = err
		}
		r.mu.Unlock()
		r.halt()
		return true
	}
	return r.stop.Load()
}

// injectClaim fires the TileClaim seam (inject). Workers cross an
// armed seam one at a time and re-read the stop flag inside it, so
// every crossing after an injected cancel comes after its halt and
// drains: only the tiles claimed before the fault run, under any policy
// and worker count. Without the lock, a worker preempted between the
// fault and its halt let the others run on, up to every tile. Only
// armed runs (the chaos tests) take the lock.
//
//spgemm:hotpath
func (r *run) injectClaim() bool {
	if r.opt.Chaos == nil {
		return false
	}
	r.seam.Lock()
	defer r.seam.Unlock()
	return r.inject(chaos.TileClaim)
}

// watchStall arms the stall watchdog: a side goroutine that samples the
// completed-tile counter every timeout and fails the run if a full
// window passes with no progress before the run returns, even with
// every tile done (Done == Tiles). The verdict records the wave in
// progress at detection time (waves is the plan's wave count). The
// watcher ends only on stop or when the returned function, which must
// be called, releases it. A non-positive timeout arms nothing.
func (r *run) watchStall(timeout time.Duration, tiles, waves int64) (finish func()) {
	if timeout <= 0 || tiles <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		ticker := time.NewTicker(timeout)
		defer ticker.Stop()
		last := int64(0)
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				if r.stop.Load() {
					return
				}
				done := r.done.Load()
				if done != last {
					last = done
					continue
				}
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				r.stall(&StallError{
					Timeout: timeout, Done: done, Tiles: tiles,
					Wave: r.wave.Load(), Waves: waves, Stacks: buf,
				})
				return
			}
		}
	}()
	return func() { close(quit) }
}
