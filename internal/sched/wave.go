package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maskedspgemm/internal/chaos"
)

// This file is the scheduler's dependency-wave core. A WavePlan orders
// the tile index space into waves — levels of mutually independent
// tiles — with a completion barrier between consecutive waves, the
// substrate level-scheduled kernels (the triangular solve, and later
// cross-shard panel dependencies) need. The executor keeps one
// persistent worker pool for the whole plan: workers claim tiles within
// the current wave under the usual Static/Dynamic/Guided policies and
// cross wave boundaries on a condition-variable barrier, never
// respawning goroutines. The flat, embarrassingly parallel tile bag
// every SpGEMM plan emits is the degenerate single-wave case
// (SingleWave), run by the same RunWavesOpts rather than by a parallel
// implementation.

// Wave is one dependency level of a WavePlan: a half-open range
// [Lo, Hi) of tile indices that are mutually independent and may run
// concurrently once every tile of the preceding wave has completed.
type Wave struct {
	Lo, Hi int
}

// Tiles returns the number of tiles in the wave.
func (w Wave) Tiles() int { return w.Hi - w.Lo }

// WavePlan orders the tile index space [0, Tiles()) into a sequence of
// waves separated by completion barriers: a tile may depend only on
// tiles in strictly earlier waves, never on tiles in its own. The zero
// WavePlan is the empty plan (no tiles, no waves).
type WavePlan struct {
	// waves is nil on the single-wave fast path, where the implicit
	// wave is [0, tiles).
	waves []Wave
	tiles int
	// widest caches the widest wave's tile count — the executor's
	// effective parallelism bound.
	widest int
}

// SingleWave is the degenerate plan: every tile independent, one wave,
// no barrier crossings. Negative tile counts are treated as zero, so
// every entry point expressed on the wave core validates tile counts
// uniformly.
func SingleWave(tiles int) WavePlan {
	if tiles < 0 {
		tiles = 0
	}
	return WavePlan{tiles: tiles, widest: tiles}
}

// NewWavePlan builds a plan from an ordered wave list. The waves must
// tile [0, n) contiguously: the first starts at 0, each subsequent wave
// starts where its predecessor ended, and every wave holds at least one
// tile. An empty list yields the empty plan.
func NewWavePlan(waves []Wave) (WavePlan, error) {
	end, widest := 0, 0
	for i, w := range waves {
		if w.Lo != end || w.Hi <= w.Lo {
			return WavePlan{}, fmt.Errorf("sched: wave %d is [%d,%d), want a non-empty range starting at %d", i, w.Lo, w.Hi, end)
		}
		end = w.Hi
		if n := w.Tiles(); n > widest {
			widest = n
		}
	}
	if len(waves) == 0 {
		return WavePlan{}, nil
	}
	return WavePlan{waves: waves, tiles: end, widest: widest}, nil
}

// Tiles returns the total tile count across all waves.
func (pl WavePlan) Tiles() int { return pl.tiles }

// NumWaves returns the number of waves; 0 for the empty plan.
func (pl WavePlan) NumWaves() int {
	if pl.waves != nil {
		return len(pl.waves)
	}
	if pl.tiles > 0 {
		return 1
	}
	return 0
}

// WaveAt returns wave i in execution order, i in [0, NumWaves()).
func (pl WavePlan) WaveAt(i int) Wave {
	if pl.waves == nil {
		return Wave{Lo: 0, Hi: pl.tiles}
	}
	return pl.waves[i]
}

// Widest returns the widest wave's tile count, the plan's effective
// parallelism bound: workers beyond it would idle in every wave.
func (pl WavePlan) Widest() int { return pl.widest }

// WaveStats accumulates wave-executor observability counters across the
// workers of a run. All fields are updated atomically by concurrent
// workers; the struct is shared and contended only at wave boundaries
// (never per tile), so it carries no cache-line padding.
type WaveStats struct {
	// Crossings counts barrier arrivals: one per worker per crossed
	// wave boundary. A single-wave run records zero.
	Crossings atomic.Int64
	// BarrierWaitNs is the cumulative time workers spent parked at wave
	// barriers waiting for stragglers — the load-imbalance signal of a
	// level-scheduled run.
	BarrierWaitNs atomic.Int64
}

// run is one multi-worker run: the control block its workers share and
// everything they read, in the one object the run allocates. Helpers
// receive the run and a worker id (spawn) and execute work.
type run struct {
	// stop is set on cancellation, first panic or stall verdict; workers
	// observe it between tile claims and drain without starting new
	// work.
	stop atomic.Bool
	// next is the shared claim counter of the current wave (Dynamic and
	// Guided); the last arriver at each barrier resets it to the next
	// wave's Lo. Static ignores it.
	next atomic.Int64
	// done counts completed tiles; the stall watchdog samples it.
	// Incremented only when a watchdog is armed, so the plain runs stay
	// increment-free.
	done atomic.Int64
	// wave tracks the index of the wave currently executing, so stall
	// verdicts can name the stuck wave of a dependency-carrying run.
	wave atomic.Int64
	mu   sync.Mutex
	pe   *PanicError
	// se records a stall-watchdog verdict; cause records an injected
	// spurious cancel. Both must carry an error — a stop flag with no
	// recorded cause would silently truncate the result.
	se    *StallError
	cause error
	// seam serializes the crossings of an armed TileClaim seam
	// (injectClaim).
	seam sync.Mutex
	wg   sync.WaitGroup
	bar  waveBarrier

	plan   WavePlan
	policy Policy
	p      int
	opt    RunOpts
	fn     func(worker, tile int)
}

// waveBarrier synchronizes a run's workers at wave boundaries, reused
// across every crossing: arrivals are counted under mu, and a phase
// counter lets waiters distinguish "the barrier I arrived at opened"
// from a spurious wakeup. A parked worker re-checks the run's stop flag
// on every wakeup, so a panic, cancellation or stall verdict raised
// anywhere (all of which broadcast through run.halt) drains the barrier
// instead of deadlocking it. A lone worker (a watchdog-armed run on one
// worker) arrives last at every barrier and never parks.
type waveBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	phase   int64
}

// wake broadcasts under the barrier lock; run.halt calls it after
// raising the stop flag. Taking mu orders the broadcast after any
// in-flight Wait registration, so no parked worker can miss it.
func (b *waveBarrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// arrive parks the caller at the barrier after wave wv until all of the
// run's workers have arrived or the run stops. The last arriver resets
// the claim counter and the current-wave gauge for wave wv+1 — the one
// point where cross-wave state may advance, because every other worker
// is provably parked or drained — then opens the barrier for everyone.
// With WaveStats the time spent parked is added to its barrier-wait
// counter.
func (r *run) arrive(wv int) {
	b, ws := &r.bar, r.opt.WaveStats
	b.mu.Lock()
	b.arrived++
	if b.arrived == r.p {
		b.arrived = 0
		r.next.Store(int64(r.plan.WaveAt(wv + 1).Lo))
		r.wave.Store(int64(wv + 1))
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	ph := b.phase
	var parked time.Time
	if ws != nil {
		parked = time.Now()
	}
	for b.phase == ph && !r.stop.Load() {
		b.cond.Wait()
	}
	b.mu.Unlock()
	if ws != nil {
		ws.BarrierWaitNs.Add(time.Since(parked).Nanoseconds())
	}
}

// RunWavesE is RunWavesOpts with the zero RunOpts: every tile of plan
// runs wave by wave under panic containment and cooperative
// cancellation, the first failure is returned — a *PanicError for
// panics, ctx.Err() for cancellation — and the remaining workers drain,
// including any parked at a wave barrier. ctx may be nil.
func RunWavesE(ctx context.Context, policy Policy, p int, plan WavePlan, fn func(worker, tile int)) error {
	return RunWavesOpts(ctx, policy, p, plan, RunOpts{}, fn)
}

// RunWavesOpts is the scheduler's core entry point: it executes
// fn(worker, tile) for every tile of plan under the given policy with
// panic containment, cooperative cancellation, and the RunOpts
// resilience extras. fn must be safe for concurrent invocation with
// distinct tile indices; the worker id lets callers keep per-worker
// scratch (accumulators, output buffers) without locking. With one
// worker and no stall watchdog the tiles run inline on the caller's
// goroutine with the run's state on its stack (runInline), so a
// single-worker run carries no goroutine and allocates nothing of its
// own; it reports the same errors as the worker path. Otherwise the run
// is one run object, whose workers run on parked helpers (spawn), so a
// warm run starts no goroutine and allocates that object alone. Within
// a wave, workers claim tiles under the policy (Static ownership keeps
// the global t mod p == worker invariant across waves; a Guided worker
// claims max(remaining/p, 1) tiles per atomic operation); at each wave
// boundary the workers cross a condition-variable barrier, with the
// last arriver resetting the shared claim counter for the next wave
// while every other worker is parked. Single-wave plans never touch the
// barrier, so the flat case pays nothing for the generality.
func RunWavesOpts(ctx context.Context, policy Policy, p int, plan WavePlan, opt RunOpts, fn func(worker, tile int)) error {
	switch policy {
	case Static, Dynamic, Guided:
	default:
		return fmt.Errorf("sched: unknown policy %d", policy)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	p = min(Workers(p), plan.Widest())
	if p <= 1 && opt.StallTimeout <= 0 {
		return runInline(ctx, plan, opt.Chaos, fn)
	}
	r := &run{plan: plan, policy: policy, p: p, opt: opt, fn: fn}
	r.bar.cond.L = &r.bar.mu
	defer r.watch(ctx)()
	defer r.watchStall(opt.StallTimeout, int64(plan.Tiles()), int64(plan.NumWaves()))()
	r.wg.Add(p)
	for w := range p {
		spawn(r, w)
	}
	r.wg.Wait()
	return r.err(ctx)
}

// work is worker w's whole part in the run: its claim loop in each wave
// and its crossing of every barrier, under the recover frame that turns
// a panic into the run's PanicError.
func (r *run) work(w int) {
	defer func() {
		if v := recover(); v != nil {
			r.capture(panicError(w, v))
		}
	}()
	if r.inject(chaos.WorkerSpawn) {
		// Draining implies the stop flag is raised, so no other worker
		// can reach a barrier and wait on us.
		return
	}
	nw := r.plan.NumWaves()
	for wv := 0; ; wv++ {
		r.claim(w, r.plan.WaveAt(wv))
		if wv+1 >= nw || r.stop.Load() {
			return
		}
		// Draining here is safe mid-protocol: an injected cancel halts
		// the run, which wakes the parked workers to drain with this one.
		if r.inject(chaos.WaveBarrier) {
			return
		}
		if ws := r.opt.WaveStats; ws != nil {
			ws.Crossings.Add(1)
		}
		r.arrive(wv)
		if r.stop.Load() {
			return
		}
	}
}

// claim runs worker w's tiles of wave under the run's policy. Static
// walks the tiles the worker owns, its first chosen so that
// tile mod p == worker holds within every wave; Dynamic claims one tile
// per atomic increment of the shared counter; Guided claims a
// claimGuidedRange chunk at a time.
func (r *run) claim(w int, wave Wave) {
	switch r.policy {
	case Static:
		off := (w - wave.Lo) % r.p
		if off < 0 {
			off += r.p
		}
		for t := wave.Lo + off; t < wave.Hi; t += r.p {
			if r.stop.Load() || r.injectClaim() {
				return
			}
			r.tile(w, t)
		}
	case Dynamic:
		for {
			if r.stop.Load() || r.injectClaim() {
				return
			}
			t := int(r.next.Add(1)) - 1
			if t >= wave.Hi {
				return
			}
			r.tile(w, t)
		}
	case Guided:
		for !r.stop.Load() {
			lo, hi := claimGuidedRange(&r.next, wave.Hi, r.p)
			if lo >= hi {
				return
			}
			for t := lo; t < hi; t++ {
				if r.stop.Load() || r.injectClaim() {
					return
				}
				r.tile(w, t)
			}
		}
	}
}

// tile runs tile t on worker w and counts it for an armed watchdog.
func (r *run) tile(w, t int) {
	r.fn(w, t)
	if r.opt.StallTimeout > 0 {
		r.done.Add(1)
	}
}

// claimGuidedRange reserves the next guided chunk [lo, hi2) of the
// range ending at hi: GuidedChunk(remaining, p) tiles. The CAS loop
// guarantees each tile is claimed by exactly one worker. The wave
// executor resets the shared counter to each wave's Lo at the barrier,
// so the geometric decay restarts per wave.
//
//spgemm:hotpath
func claimGuidedRange(next *atomic.Int64, hi, p int) (lo, hi2 int) {
	for {
		cur := next.Load()
		if cur >= int64(hi) {
			return hi, hi
		}
		c := int64(GuidedChunk(hi-int(cur), p))
		if next.CompareAndSwap(cur, cur+c) {
			return int(cur), int(cur + c)
		}
	}
}

// runInline is RunWavesOpts on one worker without a stall watchdog:
// the tiles run in order on the caller's goroutine, and everything the
// run tracks lives on this frame — no control block, no watcher
// goroutine — so the run allocates nothing of its own. Its error is the
// worker path's (outcome): a panic as *PanicError from worker 0, then
// ctx's error, then an injected cancel. Cancellation is observed
// between tiles by polling ctx.Done, which a cancel closes before it
// returns, so a tile that cancels its own run is the last to start.
func runInline(ctx context.Context, plan WavePlan, inj chaos.Injector, fn func(worker, tile int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(0, r)
		}
	}()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	return outcome(ctx, nil, nil, inlineTiles(done, plan, inj, fn))
}

// inlineTiles is runInline's tile loop. It stops before the next tile
// once done is closed, and at a seam fault, whose injected cancel it
// returns.
//
//spgemm:hotpath
func inlineTiles(done <-chan struct{}, plan WavePlan, inj chaos.Injector, fn func(worker, tile int)) error {
	if inj != nil {
		//lint:ignore hotpathalloc allocates only when a fault fires, and the run stops with it
		if err := seamFault(inj, chaos.WorkerSpawn); err != nil {
			return err
		}
	}
	for wv := range plan.NumWaves() {
		wave := plan.WaveAt(wv)
		for t := wave.Lo; t < wave.Hi; t++ {
			select {
			case <-done:
				return nil
			default:
			}
			if inj != nil {
				//lint:ignore hotpathalloc allocates only when a fault fires, and the run stops with it
				if err := seamFault(inj, chaos.TileClaim); err != nil {
					return err
				}
			}
			fn(0, t)
		}
	}
	return nil
}
