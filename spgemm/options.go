package spgemm

import (
	"context"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/obs"
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
	// runs on the calling goroutine.
	Workers int
	// Semiring is the multiplication algebra of the products and the
	// element-wise operations. Default SRPlusTimes; a value outside the
	// enum is ErrConfig. The algorithm wrappers and TRSV fix their own.
	Semiring Semiring
	// Fuse enables the tile-granular fused pipeline for chained
	// products: MxMChain streams each tile of its first product into the
	// second while hot instead of materializing the intermediate matrix,
	// and the algorithm wrappers with fused formulations (KTruss's
	// support-and-prune round, BetweennessCentralityBatch's backward
	// sweep) use them. Results are bit-identical to the unfused paths;
	// only intermediate allocations and locality change.
	Fuse bool
	// AdaptiveKappa turns on online recalibration of the co-iteration
	// factor κ: every run through an Engine feeds its
	// measured cost back into a per-operand-family estimator (cached on
	// the Engine) that brackets the current κ, recenters on cheaper
	// neighbors, and periodically audits itself against the static
	// Kappa — snapping back if adaptation ever loses to it. Requires a
	// non-nil Engine (the estimator must persist between calls);
	// otherwise it is ignored. A Multiplier always has an Engine, its
	// own when the Options carry none.
	AdaptiveKappa bool
	// ValuedMask switches the mask from structural semantics (any stored
	// entry allows the position — GraphBLAS GrB_STRUCTURE, the paper's
	// setting) to valued semantics (the stored value must be nonzero).
	ValuedMask bool
	// Context, when non-nil, makes the multiplication cooperatively
	// cancellable: workers observe cancellation between tile claims and
	// the call returns an error matching ErrCanceled (and the context's
	// own error). nil runs to completion. Cancellation checks are
	// amortized per scheduling chunk, so an uncancelled run with a
	// context costs the same as one without.
	Context context.Context
	// Engine, when non-nil, pools workspaces and caches structural plans
	// across every call that shares it, making warm iterative loops
	// allocation-free and concurrent multiplies safe — see Engine and
	// DefaultEngine. nil builds and discards buffers per call, the
	// one-shot behavior; a Multiplier built without one creates its own.
	Engine *Engine
	// Stats, when non-nil, records observability data for every run
	// under these options: phase wall times, exact per-worker counters
	// with load-imbalance summaries, hybrid-decision counts and
	// accumulator statistics — see StatsRecorder. nil disables all
	// collection at zero cost.
	Stats *StatsRecorder
	// ValidateInputs runs the full CSR invariant check (sorted
	// duplicate-free rows, in-range indices, monotone row pointers) on
	// every operand before multiplying, returning ErrInvalidMatrix on
	// violation. The check is O(nnz) and parallelized over Workers;
	// enable it at trust boundaries (user-supplied files), skip it in
	// inner loops over matrices this package built itself.
	ValidateInputs bool
	// Retry re-executes a multiplication after transient failures —
	// contained panics (ErrPanic), stall-watchdog verdicts (ErrStalled)
	// and injected faults — descending a degradation ladder so the
	// retried attempt cannot trip over the same concurrency, fusion or
	// pooled state: parallel → serial, fused → staged, pooled →
	// unpooled. The zero value disables retrying. See docs/RESILIENCE.md
	// for the full taxonomy and ladder.
	Retry Retry
	// StallTimeout, when positive, arms a watchdog on every scheduled
	// phase: if no tile completes for a full window, the run is stopped
	// and reported as ErrStalled with the stacks of all goroutines at
	// verdict time. The watchdog detects rather than preempts — a worker
	// hung in non-cooperative code still holds its goroutine — but the
	// typed error lets callers (and Options.Retry) respond instead of
	// blocking forever on a lost workspace. 0 disables the watchdog.
	StallTimeout time.Duration

	// chaos, when non-nil, arms the deterministic fault-injection seams
	// throughout the execution layers. Set only by this package's tests
	// and the chaos harness (the injector type is internal); production
	// callers leave it nil, which compiles every seam down to one
	// pointer comparison.
	chaos chaos.Injector
}

// Defaults returns the paper's recommended configuration (§V), as
// core.DefaultConfig states it: κ = 1 and 2048 row tiles.
func Defaults() Options {
	d := core.DefaultConfig()
	return Options{Kappa: d.Kappa, Tiles: d.Tiles}
}

// recorder resolves the obs recorder every run under these options
// records into: the attached StatsRecorder's, or — when the engine
// carries live telemetry but no StatsRecorder is attached — the
// telemetry registry's own fallback recorder, so /metrics works with
// zero configuration beyond EngineConfig.Telemetry. nil (no recorder,
// no telemetry) disables collection as before.
func (o Options) recorder() *obs.Recorder {
	if r := o.Stats.recorder(); r != nil {
		return r
	}
	return o.Engine.telemetry().recorder()
}

// config translates Options to the internal kernel configuration: the
// recommended one, core.DefaultConfig, with the caller's κ, tile count,
// workers, context, engine, recorder and resilience extras.
func (o Options) config() core.Config {
	tel := o.Engine.telemetry()
	// A user recorder under a telemetry-carrying engine feeds the live
	// registry too (AttachRecorder installs the sink; idempotent).
	if tel != nil && o.Stats != nil {
		tel.AttachRecorder(o.Stats)
	}
	cfg := core.DefaultConfig()
	cfg.Kappa = o.Kappa
	cfg.Tiles = o.Tiles
	cfg.Workers = o.Workers
	cfg.Context = o.Context
	cfg.Engine = o.Engine.internal()
	cfg.Recorder = o.recorder()
	if o.chaos != nil || o.StallTimeout != 0 {
		// The telemetry tap records every armed chaos decision as an
		// EventChaos in the flight recorder before the fault executes.
		cfg.Resilience = &core.Resilience{
			Chaos:        tel.internal().WrapInjector(o.chaos),
			StallTimeout: o.StallTimeout,
		}
	}
	return cfg
}
