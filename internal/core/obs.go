package core

import (
	"context"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// runOpts assembles the wave executor's options from the config: the
// resilience knobs (chaos seams, stall watchdog) and the run's
// wave-stats block, nil for a flat run.
func runOpts(cfg Config, wstats *sched.WaveStats) sched.RunOpts {
	opt := sched.RunOpts{WaveStats: wstats}
	if cfg.Resilience != nil {
		opt.Chaos = cfg.Resilience.Chaos
		opt.StallTimeout = cfg.Resilience.StallTimeout
	}
	return opt
}

// runSolveWavesSpanned executes a wave plan under the exec.solve span,
// handing each tile callback the worker's counter block (nil when
// observability is off).
func runSolveWavesSpanned(
	ctx context.Context, cfg Config, scope *obs.RunScope, workers int,
	plan sched.WavePlan, wstats *sched.WaveStats,
	run func(worker, t int, wc *obs.WorkerCounters),
) error {
	opt := runOpts(cfg, wstats)
	slots := scope.WorkerSlots(workers)
	defer scope.Span(obs.PhaseExecSolve, scope.Now())
	return sched.RunWavesOpts(ctx, cfg.Schedule, workers, plan, opt, func(worker, t int) {
		var wc *obs.WorkerCounters
		if slots != nil {
			wc = &slots[worker]
			wc.Tiles.Add(1)
		}
		run(worker, t, wc)
	})
}

// This file is the glue between the kernel pipeline and the obs
// recorder: phase-spanned plan construction and per-run accumulator
// counter deltas. Every helper takes the run's *obs.RunScope (nil when
// observability is off, so the uninstrumented pipeline takes the exact
// pre-observability paths); the scope holds the run's spans and
// counters apart from every other run's and folds them into the
// recorder's cumulative totals exactly once at End.

// planFor resolves the execution plan — tile partition plus accumulator
// row-capacity bound. It first asks the paper's title question of the
// call itself: a product whose untiled serial pass would touch fewer
// than tileCrossover units (see belowTileCrossover) gets the one-tile
// plan {[0, rows)} — nil Tiles, so the run keeps its one tile in the
// workspace rather than a new slice — built without Eq. 2 arrays and
// neither looked up in nor stored to the plan cache (an iterative
// caller's key could only miss, and the stored entry would pin three
// operands nobody multiplies again). Every other product goes through
// the engine's fingerprint-keyed cache when cfg.Engine is set, building
// (under the scope's plan spans) on a miss.
// Without an engine every call builds; a cached hit records no plan
// spans because no plan work happened.
func planFor[T sparse.Number](
	ctx context.Context, cfg Config, pw int, m, a, b *sparse.CSR[T], scope *obs.RunScope,
) (exec.Plan, error) {
	if belowTileCrossover(m, a, b) {
		return rowCapacity(ctx, cfg, pw, a, b, m, scope)
	}
	build := func() (exec.Plan, error) {
		tiles, err := makeTiles(ctx, cfg, pw, a, b, m, scope)
		if err != nil {
			return exec.Plan{}, err
		}
		plan, err := rowCapacity(ctx, cfg, pw, a, b, m, scope)
		plan.Tiles = tiles
		return plan, err
	}
	if cfg.Engine == nil {
		return build()
	}
	key := exec.PlanKey{
		M:       exec.IDOf(m),
		A:       exec.IDOf(a),
		B:       exec.IDOf(b),
		Tiles:   cfg.Tiles,
		Tiling:  cfg.Tiling,
		Vanilla: cfg.Iteration == Vanilla,
	}
	return cfg.Engine.Plan(key, build)
}

// recordPoolDelta folds the engine's pool-counter movement since prior
// into the run scope. When several concurrent runs share the engine the
// delta includes their overlapping traffic — attribution is per engine.
func recordPoolDelta(cfg Config, prior exec.PoolStats, scope *obs.RunScope) {
	if !scope.Enabled() || cfg.Engine == nil {
		return
	}
	scope.AddPool(cfg.Engine.Stats().Sub(prior).Counters())
}

// makeTiles builds the tile partition. Without a scope it defers to
// tiling.MakeParallelE unchanged; with one, each FLOP-balanced plan
// phase — Eq. 2 row-work estimation and prefix sum (the two passes of
// tiling.WorkPrefixE), boundary placement — runs under its own span.
func makeTiles[T sparse.Number](
	ctx context.Context, cfg Config, pw int, a, b, m *sparse.CSR[T], scope *obs.RunScope,
) ([]tiling.Tile, error) {
	if !scope.Enabled() {
		return tiling.MakeParallelE(ctx, cfg.Tiling, cfg.Tiles, pw, a, b, m)
	}
	switch cfg.Tiling {
	case tiling.Uniform:
		defer scope.Span(obs.PhasePlanTileBuild, scope.Now())
		return tiling.UniformTiles(a.Rows, cfg.Tiles), nil
	case tiling.FlopBalanced:
		prefix, err := tiling.WorkPrefixE(ctx, a, b, m, pw, func(step int, run func() error) error {
			defer scope.Span(planSteps[step], scope.Now())
			return run()
		})
		if err != nil {
			return nil, err
		}
		defer scope.Span(obs.PhasePlanTileBuild, scope.Now())
		return tiling.BalancedFromPrefix(prefix, cfg.Tiles), nil
	default:
		return tiling.MakeParallelE(ctx, cfg.Tiling, cfg.Tiles, pw, a, b, m)
	}
}

// planSteps names tiling.WorkPrefixE's two passes as plan phases.
var planSteps = [2]obs.Phase{obs.PhasePlanRowWork, obs.PhasePlanPrefixSum}

// rowCapacity computes the accumulator row-entry bound (§III-C sizing)
// and the mask rows' column spans under the plan.row_cap span, as a plan
// without tiles: max nnz of a mask row, or the flop upper bound for the
// vanilla space.
func rowCapacity[T sparse.Number](
	ctx context.Context, cfg Config, pw int, a, b, m *sparse.CSR[T], scope *obs.RunScope,
) (exec.Plan, error) {
	defer scope.Span(obs.PhasePlanRowCap, scope.Now())
	plan, err := maskRows(ctx, m, pw)
	if err != nil || cfg.Iteration != Vanilla {
		return plan, err
	}
	_, maxFlops, err := tiling.FlopCountParallelE(ctx, a, b, pw)
	plan.RowCap = min(maxFlops, int64(b.Cols))
	return plan, err
}

// accumTotal sums the accumulators' counters; with a scope it first
// enables the gated ones. The accumulators persist across runs (a
// pooled workspace), so the run's delta is the total after the run less
// the total before it. Nil scope → zero, without touching them.
func accumTotal[T sparse.Number](accs []accum.Accumulator[T], scope *obs.RunScope) accum.Stats {
	var sum accum.Stats
	if !scope.Enabled() {
		return sum
	}
	for _, ac := range accs {
		if in, ok := ac.(accum.Instrumented); ok {
			in.EnableStats()
			sum.Add(in.AccumStats())
		}
	}
	return sum
}

// recordAccumDelta folds the accumulators' counter movement since prior
// into the run scope and marks the run complete.
func recordAccumDelta[T sparse.Number](accs []accum.Accumulator[T], prior accum.Stats, scope *obs.RunScope) {
	if !scope.Enabled() {
		return
	}
	delta := accumTotal(accs, scope).Sub(prior)
	scope.AddAccum(obs.AccumCounters{
		MarkerClears:   delta.Clears,
		TableGrows:     delta.Grows,
		HashProbes:     delta.Probes,
		HashCollisions: delta.Collisions,
		SpilledRows:    delta.Spills,
	})
	scope.MarkComplete()
}
