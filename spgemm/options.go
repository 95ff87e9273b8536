package spgemm

import (
	"context"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/core"
)

// Semiring selects the algebra of the multiplication.
type Semiring int

const (
	// SRPlusTimes is ordinary (+, ×) arithmetic.
	SRPlusTimes Semiring = iota
	// SRPlusPair counts structural matches: x⊗y = 1.
	SRPlusPair
	// SROrAnd is the Boolean semiring over nonzero-is-true values.
	SROrAnd
)

// Options is the kernel tuning surface: what the planner cannot derive
// from the operands. Every product runs the paper's recommended
// configuration (§V) — hybrid iteration, FLOP-balanced tiles claimed
// dynamically, 32-bit markers — with its accumulator family derived
// per product; the study's alternatives to those are reached through
// spgemm-bench (docs/TUNING.md). The zero value is NOT valid; start
// from Defaults.
type Options struct {
	// Kappa is the co-iteration factor κ of the hybrid iteration space:
	// a row pair co-iterates when nnz(M[i,:])·log2(nnz(B[k,:])) <
	// κ·nnz(B[k,:]). Default 1. A tiny κ never co-iterates (mask-load);
	// a huge one always does.
	Kappa float64
	// Tiles is the requested number of row tiles. Default 2048. Clamped
	// to the number of rows and, for a product too small for tiling to
	// pay (docs/TUNING.md, "Not to tile"), to one.
	Tiles int
	// LevelSchedule selects how TRSV executes its dependency levels:
	// LevelAuto (default) takes waves vs. serial from the plan's
	// predicted times for the operand structure and worker count, decided
	// when the level-set plan is built and cached with it; LevelWaves
	// forces the coarsened wave schedule,
	// LevelSerial forces the substitution loop. Ignored by MxM.
	LevelSchedule LevelSchedule
	// Workers is the requested goroutine pool size; 0 = GOMAXPROCS. A
	// multiply uses no more workers than it has tiles; a one-tile product
	// runs on the calling goroutine. BetweennessCentralityBatch splits
	// its sources across this many workers, one source each per block.
	Workers int
	// Semiring is the multiplication algebra of the products and the
	// element-wise operations. Default SRPlusTimes; a value outside the
	// enum is ErrConfig. The algorithm wrappers and TRSV fix their own.
	Semiring Semiring
	// Fuse has no effect. KTruss runs one formulation, which already
	// keeps its intermediate matrix unassembled, and
	// BetweennessCentralityBatch multiplies no matrices; the field is
	// kept only until the end-to-end benchmark's second variant, which
	// sets it, is retired.
	Fuse bool
	// Context, when non-nil, makes the multiplication cooperatively
	// cancellable: workers observe cancellation between tile claims and
	// the call returns an error matching ErrCanceled (and the context's
	// own error). nil runs to completion. Cancellation checks are
	// amortized per scheduling chunk, so an uncancelled run with a
	// context costs the same as one without. BetweennessCentralityBatch
	// observes it before each block of sources.
	Context context.Context
	// Engine, when non-nil, pools workspaces and caches structural plans
	// across every call that shares it, making warm iterative loops
	// allocation-free and concurrent multiplies safe — see Engine and
	// DefaultEngine. nil builds and discards buffers per call, the
	// one-shot behavior. It has no effect on BetweennessCentralityBatch,
	// whose per-call state is its own.
	Engine *Engine
	// Stats, when non-nil, records observability data for every run
	// under these options: phase wall times, exact per-worker counters
	// with load-imbalance summaries, hybrid-decision counts and
	// accumulator statistics — see StatsRecorder. nil disables all
	// collection at zero cost. BetweennessCentralityBatch runs no
	// product and records nothing.
	Stats *StatsRecorder
	// ValidateInputs runs the full CSR invariant check (sorted
	// duplicate-free rows, in-range indices, monotone row pointers) on
	// every operand before multiplying, returning ErrInvalidMatrix on
	// violation. The check is O(nnz) and parallelized over Workers;
	// enable it at trust boundaries (user-supplied files), skip it in
	// inner loops over matrices this package built itself.
	ValidateInputs bool
	// StallTimeout, when positive, arms a watchdog on every scheduled
	// phase: if no tile completes for a full window, the run is stopped
	// and reported as ErrStalled with the stacks of all goroutines at
	// verdict time. The watchdog detects rather than preempts — a worker
	// hung in non-cooperative code still holds its goroutine — but the
	// typed error lets callers respond instead of blocking forever on a
	// lost workspace. 0 disables the watchdog.
	StallTimeout time.Duration

	// chaos, when non-nil, arms the deterministic fault-injection seams
	// throughout the execution layers. Set only by this package's tests
	// (the injector type is internal); production callers leave it nil,
	// which compiles every seam down to one pointer comparison.
	chaos chaos.Injector
}

// Defaults returns the paper's recommended configuration (§V), as
// core.DefaultConfig states it: κ = 1 and 2048 row tiles.
func Defaults() Options {
	d := core.DefaultConfig()
	return Options{Kappa: d.Kappa, Tiles: d.Tiles}
}

// config translates Options to the internal kernel configuration: the
// recommended one, core.DefaultConfig, with the caller's κ, tile count,
// workers, context, engine, recorder and resilience extras.
func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Kappa = o.Kappa
	cfg.Tiles = o.Tiles
	cfg.Workers = o.Workers
	cfg.Context = o.Context
	cfg.Engine = o.Engine.internal()
	cfg.Recorder = o.Stats.recorder()
	if o.chaos != nil || o.StallTimeout != 0 {
		cfg.Resilience = &core.Resilience{Chaos: o.chaos, StallTimeout: o.StallTimeout}
	}
	return cfg
}
