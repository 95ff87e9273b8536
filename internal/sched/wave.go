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
// substrate level-scheduled kernels (masked triangular solve, and later
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

// waveBarrier synchronizes the persistent workers at wave boundaries.
// One allocation per multi-wave run, reused across every crossing:
// arrivals are counted under mu, and a phase counter lets waiters
// distinguish "the barrier I arrived at opened" from a spurious wakeup.
// A parked worker re-checks the run's stop flag on every wakeup, so a
// panic, cancellation or stall verdict raised anywhere (all of which
// broadcast through runState.halt) drains the barrier instead of
// deadlocking it.
type waveBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	phase   int64
}

// barrierFor returns the barrier of a run of nw waves on p workers: nil
// when there is no boundary to cross or no second worker to wait for.
func barrierFor(p, nw int) *waveBarrier {
	if p <= 1 || nw <= 1 {
		return nil
	}
	b := &waveBarrier{}
	b.cond.L = &b.mu
	return b
}

// wake broadcasts under the barrier lock; runState.halt calls it after
// raising the stop flag. Taking mu orders the broadcast after any
// in-flight Wait registration, so no parked worker can miss it.
func (b *waveBarrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// arrive parks the caller until all p workers of the run have arrived
// or the run stops. The last arriver executes release — the one point
// where cross-wave state (the shared claim counter, the current-wave
// gauge) may advance, because every other worker is provably parked or
// drained — then opens the barrier for everyone. When ws is non-nil the
// time spent parked is added to its barrier-wait counter.
func (b *waveBarrier) arrive(stop *atomic.Bool, p int, ws *WaveStats, release func()) {
	b.mu.Lock()
	b.arrived++
	if b.arrived == p {
		b.arrived = 0
		release()
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
	for b.phase == ph && !stop.Load() {
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
// worker the tiles run inline on the caller's goroutine, so
// single-worker measurements carry no goroutine overhead. Within a
// wave, workers claim tiles under the policy (Static ownership keeps the
// global t mod p == worker invariant across waves; a Guided worker
// claims max(remaining/p, 1) tiles per atomic operation); at each wave
// boundary the
// persistent workers cross a condition-variable barrier, with the last
// arriver resetting the shared claim counter for the next wave while
// every other worker is parked. Single-wave plans never touch the
// barrier machinery, so the flat case pays nothing for the generality.
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
	p = Workers(p)
	if p > plan.Widest() {
		p = plan.Widest()
	}
	nw := plan.NumWaves()
	inj := opt.Chaos
	ws := opt.WaveStats
	// wd gates the completed-tile counter; without a watchdog the claim
	// loops stay increment-free.
	wd := opt.StallTimeout > 0

	var st runState
	// Assigned once, so the worker closures hold bar by value and a run
	// that needs no barrier allocates no cell for it.
	bar := barrierFor(p, nw)
	if bar != nil {
		st.wake = bar.wake
	}
	defer st.watch(ctx)()
	defer st.watchStall(opt.StallTimeout, int64(plan.Tiles()), int64(nw))()

	if p <= 1 {
		st.guard(0, func() {
			if st.injectSpawn(inj) {
				return
			}
			for wv := 0; wv < nw; wv++ {
				wave := plan.WaveAt(wv)
				st.wave.Store(int64(wv))
				for t := wave.Lo; t < wave.Hi; t++ {
					if st.stop.Load() || st.injectClaim(inj) {
						return
					}
					fn(0, t)
					if wd {
						st.done.Add(1)
					}
				}
			}
		})
		return st.err(ctx)
	}

	// next is the shared claim counter of the current wave (Dynamic and
	// Guided). It is reset at each barrier opening by the last arriver;
	// Static ignores it.
	var next atomic.Int64
	var runWave func(w int, wave Wave)
	switch policy {
	case Static:
		runWave = func(w int, wave Wave) {
			// The first owned tile keeps the global invariant
			// tile mod p == worker within every wave.
			off := (w - wave.Lo) % p
			if off < 0 {
				off += p
			}
			for t := wave.Lo + off; t < wave.Hi; t += p {
				if st.stop.Load() || st.injectClaim(inj) {
					return
				}
				fn(w, t)
				if wd {
					st.done.Add(1)
				}
			}
		}
	case Dynamic:
		runWave = func(w int, wave Wave) {
			for {
				if st.stop.Load() || st.injectClaim(inj) {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= wave.Hi {
					return
				}
				fn(w, t)
				if wd {
					st.done.Add(1)
				}
			}
		}
	case Guided:
		runWave = func(w int, wave Wave) {
			for {
				if st.stop.Load() {
					return
				}
				lo, hi := claimGuidedRange(&next, wave.Hi, p)
				if lo >= hi {
					return
				}
				for t := lo; t < hi; t++ {
					if st.stop.Load() || st.injectClaim(inj) {
						return
					}
					fn(w, t)
					if wd {
						st.done.Add(1)
					}
				}
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		w := w
		go func() {
			defer wg.Done()
			st.guard(w, func() {
				if st.injectSpawn(inj) {
					// Draining implies the stop flag is raised, so no
					// other worker can reach a barrier and wait on us.
					return
				}
				for wv := 0; ; wv++ {
					runWave(w, plan.WaveAt(wv))
					if wv+1 >= nw || st.stop.Load() {
						return
					}
					if st.injectBarrier(inj) {
						return
					}
					if ws != nil {
						ws.Crossings.Add(1)
					}
					nextLo := plan.WaveAt(wv + 1).Lo
					bar.arrive(&st.stop, p, ws, func() {
						next.Store(int64(nextLo))
						st.wave.Store(int64(wv + 1))
					})
					if st.stop.Load() {
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	return st.err(ctx)
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

// injectBarrier fires the WaveBarrier seam once per worker per barrier
// crossing, before the worker arrives; true means the worker must drain.
// Draining is safe mid-protocol: the injected cancel raises the stop
// flag and broadcasts, so workers already parked at the barrier wake,
// observe stop, and drain with it — the barrier is never left waiting
// on a worker that will not come.
func (st *runState) injectBarrier(inj chaos.Injector) bool {
	if inj == nil {
		return false
	}
	switch chaos.Step(inj, chaos.WaveBarrier) {
	case chaos.KindError, chaos.KindCancel:
		st.injectCancel(chaos.WaveBarrier)
		return true
	}
	return false
}
