package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Multiplier is a reusable masked-SpGEMM execution for repeated
// products with the same operands and configuration — the paper's own
// measurement loop ("run for 5 seconds or 10000 iterations") and
// iterative algorithms over a fixed graph both re-execute one multiply
// many times. Construction resolves the structural plan once (through
// the engine's plan cache when cfg.Engine is set); Multiply reuses it,
// so only the result matrix is freshly allocated per call.
//
// Concurrency depends on the configuration's Engine:
//
//   - With an Engine, every Multiply checks a private workspace out of
//     the shared pool, so concurrent Multiply calls on one Multiplier
//     (and across Multipliers sharing the engine) are safe.
//   - Without an Engine the Multiplier owns a single workspace;
//     overlapping Multiply calls are detected atomically and rejected
//     with ErrConcurrentMultiply instead of racing.
//
// The operand matrices must not be mutated while the Multiplier is in
// use.
type Multiplier[T sparse.Number, S semiring.Semiring[T]] struct {
	// p describes the product to the shared run protocol, with the plan
	// below pre-resolved; every run executes a private copy.
	p    product[T, S]
	plan exec.Plan
	// ws is the owned workspace of the engineless path, guarded by
	// inUse; both stay nil/idle when the Config carries an Engine.
	ws    *exec.Workspace[T, S]
	inUse atomic.Bool
	// kappaBits, when nonzero, overrides the Config's Kappa for
	// subsequent runs (math.Float64bits encoding). The override is read
	// once per Multiply into that run's private Config copy, so online
	// recalibration can retune κ between runs without racing in-flight
	// multiplies.
	kappaBits atomic.Uint64
	// lastRun holds the most recent completed run's scoped stats
	// snapshot (nil until a run completes with a recorder configured).
	lastRun atomic.Pointer[obs.Stats]
}

// NewMultiplier validates the problem and resolves the execution plan.
func NewMultiplier[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) (*Multiplier[T, S], error) {
	mu := &Multiplier[T, S]{p: newProduct(sr, m, a, b, cfg)}
	if err := mu.p.check(); err != nil {
		return nil, err
	}
	ctx := cfg.Context
	// Small plans run serially below the parallel cutoffs, so check the
	// context once up front rather than relying on the scheduler's check.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, wrapRunErr(err)
		}
	}
	if a.Rows > 0 {
		// Plan construction records its spans under a scope of its own,
		// folded into the recorder's totals without counting as a run.
		scope := cfg.Recorder.StartRun()
		plan, err := planFor(ctx, cfg, cfg.planWorkers(), m, a, b, nil, nil, scope)
		scope.End()
		if err != nil {
			return nil, wrapRunErr(err)
		}
		mu.plan = plan
	}
	mu.p.plan, mu.p.lastRun = &mu.plan, &mu.lastRun
	if cfg.Engine == nil {
		// Engineless: construct the owned workspace once, up front, so
		// Multiply is allocation-free in steady state.
		mu.ws = mu.newWorkspace()
	}
	return mu, nil
}

// newWorkspace builds the engineless path's owned workspace at the
// configured width.
func (mu *Multiplier[T, S]) newWorkspace() *exec.Workspace[T, S] {
	cfg := mu.p.cfg
	return exec.Masked[T, S](nil, mu.p.sr, cfg.Accumulator, cfg.MarkerBits,
		mu.p.b.Cols, mu.plan.RowCap, cfg.runWorkers(len(mu.plan.Tiles)), len(mu.plan.Tiles))
}

// Tiles returns the number of tiles in the plan.
func (mu *Multiplier[T, S]) Tiles() int { return len(mu.plan.Tiles) }

// Multiply executes the plan and returns a freshly assembled result,
// under the Config's Context (nil = run to completion).
func (mu *Multiplier[T, S]) Multiply() (*sparse.CSR[T], error) {
	return mu.MultiplyCtx(mu.p.cfg.Context)
}

// MultiplyCtx is Multiply under an explicit context, overriding the
// Config's. A cancelled or panicked run returns ErrCanceled/ErrPanic
// and leaves the plan intact: the tiling stays valid and the workspace
// is replaced, so a later Multiply call runs as if the failed run had
// never happened. nil falls back to the Config's Context.
func (mu *Multiplier[T, S]) MultiplyCtx(ctx context.Context) (*sparse.CSR[T], error) {
	return mu.MultiplyDegraded(ctx, DegradeNone)
}

// MultiplyDegraded is MultiplyCtx on an explicitly degraded execution
// path — the retry layer's ladder after a transient failure. The plan
// (tiling, row capacity) is reused unchanged on every rung; only the
// execution strategy narrows. See Degradation for the rungs.
func (mu *Multiplier[T, S]) MultiplyDegraded(ctx context.Context, d Degradation) (*sparse.CSR[T], error) {
	if ctx == nil {
		ctx = mu.p.cfg.Context
	}
	// The run owns a private copy of the description, so the κ override,
	// the degradation rung, and any future per-run retuning never race a
	// concurrent Multiply.
	p := mu.p
	p.cfg = mu.runConfig(d)
	if mu.ws != nil && d < DegradeUnpooled {
		if !mu.inUse.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("%w (give the Multiplier an exec.Engine for concurrent serving)",
				ErrConcurrentMultiply)
		}
		defer mu.inUse.Store(false)
		// The owned workspace has no pool to quarantine into; a failed run
		// leaves it poisoned and the next one rebuilds it fresh (at full
		// width, for undegraded runs). Runs while inUse is held, so no
		// concurrent run sees the swap.
		if mu.ws.Poisoned() {
			mu.ws = mu.newWorkspace()
		}
		p.owned = mu.ws
	}
	// Otherwise the protocol checks a workspace out of the Engine — or,
	// on the unpooled rung, builds a fresh one-shot workspace.
	return p.run(ctx)
}

// runConfig assembles one run's private Config: the κ override and the
// degradation rung applied.
func (mu *Multiplier[T, S]) runConfig(d Degradation) Config {
	cfg := mu.p.cfg
	if bits := mu.kappaBits.Load(); bits != 0 {
		cfg.Kappa = math.Float64frombits(bits)
	}
	if d >= DegradeSerial {
		cfg.Workers, cfg.PlanWorkers, cfg.Schedule = 1, 1, sched.Static
	}
	if d >= DegradeUnpooled {
		cfg.Engine = nil
	}
	return cfg
}

// SetKappa overrides the configured Eq. 3 threshold κ for subsequent
// Multiply calls. Non-positive values restore the constructed Config's
// κ. Safe to call concurrently with in-flight multiplies: each run
// reads the override once at start.
func (mu *Multiplier[T, S]) SetKappa(kappa float64) {
	if kappa <= 0 {
		mu.kappaBits.Store(0)
		return
	}
	mu.kappaBits.Store(math.Float64bits(kappa))
}

// Kappa returns the Eq. 3 threshold the next Multiply will use: the
// SetKappa override when present, the constructed Config's otherwise.
func (mu *Multiplier[T, S]) Kappa() float64 {
	if bits := mu.kappaBits.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return mu.p.cfg.Kappa
}

// LastRunStats returns the scoped stats snapshot of the most recent
// completed Multiply (isolated by its multiply sequence id, so
// overlapping runs on a shared recorder do not bleed in). ok is false
// until a run completes with a recorder configured.
func (mu *Multiplier[T, S]) LastRunStats() (obs.Stats, bool) {
	if s := mu.lastRun.Load(); s != nil {
		return *s, true
	}
	return obs.Stats{}, false
}
