package spgemm

import (
	"context"
	"time"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/tiling"
)

// Iteration selects how the multiplication and mask are traversed
// together — the paper's §III-B dimension.
type Iteration int

const (
	// IterVanilla accumulates the full product, masking afterwards.
	IterVanilla Iteration = iota
	// IterMaskLoad loads the mask first and filters updates against it.
	IterMaskLoad
	// IterCoIter binary-searches B rows for the mask's columns.
	IterCoIter
	// IterHybrid switches per row-pair using the κ cost model — the
	// paper's recommended push-pull strategy.
	IterHybrid
)

// Accumulator selects the per-row accumulator family — §III-C.
type Accumulator int

const (
	// AccAuto, the zero value, leaves the family to the planner: per
	// product (and per stage of a chain) it picks dense when the dense
	// state is at most twice the hash table it would replace, hash
	// otherwise — docs/TUNING.md, "Dense or hash".
	AccAuto Accumulator = iota
	// AccHash forces the open-addressing hash accumulator (space ∝ mask
	// row).
	AccHash
	// AccDense forces the size-n marker-vector accumulator.
	AccDense
)

// TilingStrategy selects how output rows are split into tiles — §III-A.
type TilingStrategy int

const (
	// TileFlopBalanced balances the Eq. 2 work estimate across tiles.
	TileFlopBalanced TilingStrategy = iota
	// TileUniform gives every tile the same number of rows.
	TileUniform
)

// Schedule selects how tiles are assigned to workers.
type Schedule int

const (
	// SchedDynamic lets workers claim tiles from a shared queue.
	SchedDynamic Schedule = iota
	// SchedStatic pre-assigns tiles round-robin.
	SchedStatic
	// SchedGuided lets workers claim geometrically shrinking chunks of
	// tiles (remaining/P per claim, at least one) — OpenMP's
	// schedule(guided). At high tile counts it keeps dynamic
	// balance while paying far fewer atomic operations than SchedDynamic.
	SchedGuided
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

// Options is the kernel tuning surface. The zero value is NOT valid;
// start from Defaults.
type Options struct {
	// Iteration space (§III-B). Default IterHybrid.
	Iteration Iteration
	// Kappa is the co-iteration factor κ for IterHybrid. Default 1.
	Kappa float64
	// Accumulator family (§III-C). Default AccAuto: derived per product.
	Accumulator Accumulator
	// MarkerBits is the accumulator reset-marker width: 8/16/32/64.
	MarkerBits int
	// Tiles is the requested number of row tiles. Default 2048. Clamped
	// to the number of rows and, for a product too small for tiling to
	// pay (docs/TUNING.md, "Not to tile"), to one.
	Tiles int
	// Tiling strategy (§III-A). Default TileFlopBalanced.
	Tiling TilingStrategy
	// Schedule policy. Default SchedDynamic.
	Schedule Schedule
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
	// Semiring is the multiplication algebra. Default SRPlusTimes.
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
	// factor κ: every hybrid-iteration run through an Engine feeds its
	// measured cost back into a per-operand-family estimator (cached on
	// the Engine) that brackets the current κ, recenters on cheaper
	// neighbors, and periodically audits itself against the static
	// Kappa — snapping back if adaptation ever loses to it. Requires a
	// non-nil Engine (the estimator must persist between calls) and
	// IterHybrid; otherwise it is ignored. A Multiplier always has an
	// Engine, its own when the Options carry none.
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

// Defaults returns the paper's recommended configuration (§V): hybrid
// iteration with κ=1, 32-bit markers, 2048 FLOP-balanced tiles, dynamic
// scheduling, and the accumulator family derived per product (AccAuto).
func Defaults() Options {
	return Options{
		Iteration:  IterHybrid,
		Kappa:      1,
		MarkerBits: 32,
		Tiles:      2048,
		Tiling:     TileFlopBalanced,
		Schedule:   SchedDynamic,
	}
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

// config translates Options to the internal kernel configuration.
func (o Options) config() core.Config {
	tel := o.Engine.telemetry()
	// A user recorder under a telemetry-carrying engine feeds the live
	// registry too (AttachRecorder installs the sink; idempotent).
	if tel != nil && o.Stats != nil {
		tel.AttachRecorder(o.Stats)
	}
	cfg := core.Config{
		Kappa:      o.Kappa,
		MarkerBits: o.MarkerBits,
		Tiles:      o.Tiles,
		Workers:    o.Workers,
		Context:    o.Context,
		Engine:     o.Engine.internal(),
		Recorder:   o.recorder(),
	}
	if o.chaos != nil || o.StallTimeout != 0 {
		// The telemetry tap records every armed chaos decision as an
		// EventChaos in the flight recorder before the fault executes.
		cfg.Resilience = &core.Resilience{
			Chaos:        tel.internal().WrapInjector(o.chaos),
			StallTimeout: o.StallTimeout,
		}
	}
	switch o.Iteration {
	case IterVanilla:
		cfg.Iteration = core.Vanilla
	case IterMaskLoad:
		cfg.Iteration = core.MaskLoad
	case IterCoIter:
		cfg.Iteration = core.CoIter
	default:
		cfg.Iteration = core.Hybrid
	}
	switch o.Accumulator {
	case AccDense:
		cfg.Accumulator = accum.DenseKind
	case AccHash:
		cfg.Accumulator = accum.HashKind
	default:
		cfg.Accumulator = accum.AutoKind
	}
	switch o.Tiling {
	case TileUniform:
		cfg.Tiling = tiling.Uniform
	default:
		cfg.Tiling = tiling.FlopBalanced
	}
	switch o.Schedule {
	case SchedStatic:
		cfg.Schedule = sched.Static
	case SchedGuided:
		cfg.Schedule = sched.Guided
	default:
		cfg.Schedule = sched.Dynamic
	}
	return cfg
}
