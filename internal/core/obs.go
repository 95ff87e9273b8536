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

// runSolveWavesSpanned executes a wave plan under the exec.solve span
// and pprof label, handing each tile callback the worker's counter
// block (nil when observability is off).
func runSolveWavesSpanned(
	ctx context.Context, cfg Config, scope *obs.RunScope, workers int,
	plan sched.WavePlan, wstats *sched.WaveStats,
	run func(worker, t int, wc *obs.WorkerCounters),
) error {
	opt := runOpts(cfg, wstats)
	slots := scope.WorkerSlots(workers)
	return spanned(ctx, scope, obs.PhaseExecSolve, func() error {
		return sched.RunWavesOpts(ctx, cfg.Schedule, workers, plan, opt, func(worker, t int) {
			var wc *obs.WorkerCounters
			if slots != nil {
				wc = &slots[worker]
				wc.Tiles.Add(1)
			}
			run(worker, t, wc)
		})
	})
}

// spanned runs fn under phase's span and pprof label; without a scope
// it calls fn directly, so the uninstrumented path stays
// allocation-free.
func spanned(ctx context.Context, scope *obs.RunScope, phase obs.Phase, fn func() error) error {
	if !scope.Enabled() {
		return fn()
	}
	defer scope.Span(phase)()
	var err error
	scope.Do(ctx, phase, func() {
		err = fn()
	})
	return err
}

// This file is the glue between the kernel pipeline and the obs
// recorder: phase-spanned plan construction, per-run accumulator
// counter deltas, and the spanned/labelled wrapper around the numeric
// phases. Every helper takes the run's *obs.RunScope (nil when
// observability is off, so the uninstrumented pipeline takes the exact
// pre-observability paths); the scope isolates the run's spans and
// counters under its multiply sequence id and folds them into the
// recorder's cumulative totals exactly once at End.

// planFor resolves the execution plan — tile partition plus accumulator
// row-capacity bound. It first asks the paper's title question of the
// call itself: a product whose untiled serial pass would touch fewer
// than tileCrossover units (see belowTileCrossover; m2 and c are a
// chain's second product, nil otherwise) gets the one-tile plan
// {[0, rows)}, built without Eq. 2 arrays and neither looked up in nor
// stored to the plan cache — an iterative caller's key could only miss,
// and the stored entry would pin three operands nobody multiplies
// again; and without the row-bound pass when the run sizes no
// accumulator from it (accs false: ¬M runs on dense scratch). Every
// other product goes through the engine's fingerprint-keyed cache when
// cfg.Engine is set, building (under the scope's plan spans) on a miss.
// Without an engine every call builds; a cached hit records no plan
// spans because no plan work happened.
func planFor[T sparse.Number](
	ctx context.Context, cfg Config, pw int, m, a, b, m2, c *sparse.CSR[T], accs bool, scope *obs.RunScope,
) (exec.Plan, error) {
	if belowTileCrossover(m, a, b, m2, c) {
		var plan exec.Plan
		var err error
		if accs {
			plan, err = rowCapacity(ctx, cfg, pw, a, b, m, scope)
		}
		plan.Tiles = []tiling.Tile{{Lo: 0, Hi: a.Rows}}
		return plan, err
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
// tiling.WorkPrefixE), boundary placement — runs under its own span and
// pprof label.
func makeTiles[T sparse.Number](
	ctx context.Context, cfg Config, pw int, a, b, m *sparse.CSR[T], scope *obs.RunScope,
) ([]tiling.Tile, error) {
	if !scope.Enabled() {
		return tiling.MakeParallelE(ctx, cfg.Tiling, cfg.Tiles, pw, a, b, m)
	}
	switch cfg.Tiling {
	case tiling.Uniform:
		defer scope.Span(obs.PhasePlanTileBuild)()
		return tiling.UniformTiles(a.Rows, cfg.Tiles), nil
	case tiling.FlopBalanced:
		prefix, err := tiling.WorkPrefixE(ctx, a, b, m, pw, func(step int, run func() error) error {
			return spanned(ctx, scope, planSteps[step], run)
		})
		if err != nil {
			return nil, err
		}
		defer scope.Span(obs.PhasePlanTileBuild)()
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
	defer scope.Span(obs.PhasePlanRowCap)()
	plan, err := maskRows(ctx, m, pw)
	if err != nil || cfg.Iteration != Vanilla {
		return plan, err
	}
	_, maxFlops, err := tiling.FlopCountParallelE(ctx, a, b, pw)
	plan.RowCap = min(maxFlops, int64(b.Cols))
	return plan, err
}

// snapshotAccumStats enables the gated accumulator counters and returns
// their current values, so the post-run delta isolates this run even
// when the accumulators are reused (a pooled workspace). Nil scope → nil.
func snapshotAccumStats[T sparse.Number](accs []accum.Accumulator[T], scope *obs.RunScope) []accum.Stats {
	if !scope.Enabled() {
		return nil
	}
	prior := make([]accum.Stats, len(accs))
	for w, ac := range accs {
		if in, ok := ac.(accum.Instrumented); ok {
			in.EnableStats()
			prior[w] = in.AccumStats()
		}
	}
	return prior
}

// recordAccumDeltas folds each accumulator's counter delta since prior
// into the run scope and marks the run complete.
func recordAccumDeltas[T sparse.Number](accs []accum.Accumulator[T], prior []accum.Stats, scope *obs.RunScope) {
	if !scope.Enabled() || prior == nil {
		return
	}
	var delta accum.Stats
	for w, ac := range accs {
		if in, ok := ac.(accum.Instrumented); ok {
			delta.Add(in.AccumStats().Sub(prior[w]))
		}
	}
	scope.AddAccum(obs.AccumCounters{
		MarkerClears:   delta.Clears,
		TableGrows:     delta.Grows,
		HashProbes:     delta.Probes,
		HashCollisions: delta.Collisions,
		SpilledRows:    delta.Spills,
	})
	scope.MarkComplete()
}
