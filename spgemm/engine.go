package spgemm

import (
	"fmt"
	"sync"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/model"
)

// Engine is a shared execution-resource pool: workspaces (accumulators,
// tile staging buffers, dense scratch) and cached structural plans,
// keyed by size class and operand identity. Passing one Engine through
// Options.Engine makes every multiplication that shares it
//
//   - allocation-free in steady state: a warm iterative loop (k-truss
//     rounds, BC pivots, benchmark repetitions) checks the same buffers
//     out of the pool instead of reallocating them, and
//   - safe to run concurrently: each call holds a private workspace, so
//     independent multiplies — including overlapping MxM calls on the
//     same operands — can proceed in parallel goroutines.
//
// An Engine is safe for concurrent use and is intended to be shared
// process-wide (see DefaultEngine) or per serving pool. The zero
// Options (nil Engine) reproduces the one-shot behavior: every call
// builds and discards its own buffers.
type Engine struct {
	eng *exec.Engine
	tel *Telemetry
}

// EngineConfig bounds the Engine's retention. The zero value selects
// the defaults; negative values disable the respective cache.
type EngineConfig struct {
	// MaxIdle caps the workspaces held idle across all size classes
	// (counted retention; overflow falls back to GC-managed storage).
	// 0 = default (64); negative = keep nothing counted.
	MaxIdle int
	// MaxPlans caps the cached structural plans. 0 = default (64);
	// negative = disable plan caching.
	MaxPlans int
	// RetentionBudget is the memory, in bytes, the engine may pin in
	// idle workspaces when MaxIdle is derived from a problem's footprint
	// (NewEngineFor): the idle cap becomes budget / per-workspace bytes.
	// 0 = default (256 MiB); negative is rejected by NewEngineFor.
	// Ignored when MaxIdle is set explicitly, and by plain NewEngine,
	// which has no problem to size against.
	RetentionBudget int64
	// Telemetry, when non-nil, attaches the live-observability registry:
	// every multiplication through this engine feeds its rolling latency
	// histograms and flight recorder, and the engine's pool counters are
	// reported live on /metrics. nil disables live telemetry at zero
	// cost. See Telemetry.
	Telemetry *Telemetry
}

// NewEngine builds an Engine with the given retention bounds.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{
		eng: exec.New(exec.Config{MaxIdle: cfg.MaxIdle, MaxPlans: cfg.MaxPlans}),
		tel: cfg.Telemetry,
	}
	cfg.Telemetry.internal().AttachEngine(e.eng)
	return e
}

// NewEngineFor builds an Engine whose workspace retention is sized for
// the problem C = mask ⊙ (a × b): one structural pass extracts the
// operand features, the per-workspace footprint is estimated from the
// accumulator family opts selects, and the idle cap becomes
// cfg.RetentionBudget divided by that footprint (clamped to at least a
// warm-loop pair and at most the default cap). Explicit cfg.MaxIdle
// overrides the derived cap; cfg.MaxPlans passes through. A negative
// RetentionBudget is rejected with an error matching ErrConfig.
func NewEngineFor(mask, a, b *Matrix, opts Options, cfg EngineConfig) (*Engine, error) {
	if cfg.RetentionBudget < 0 {
		return nil, fmt.Errorf("%w: engine retention budget must be >= 0, got %d",
			ErrConfig, cfg.RetentionBudget)
	}
	f, err := model.Extract(mask.csr, a.csr, b.csr)
	if err != nil {
		return nil, err
	}
	ec := model.PredictEngineBudget(f, opts.config(), opts.Workers, cfg.RetentionBudget)
	if cfg.MaxIdle != 0 {
		ec.MaxIdle = cfg.MaxIdle
	}
	if cfg.MaxPlans != 0 {
		ec.MaxPlans = cfg.MaxPlans
	}
	return NewEngine(EngineConfig{
		MaxIdle:   ec.MaxIdle,
		MaxPlans:  ec.MaxPlans,
		Telemetry: cfg.Telemetry,
	}), nil
}

// PoolStats is a snapshot of an Engine's pool counters. Hits, Misses
// and Steals partition workspace checkouts (a steal recycles a
// compatible larger workspace); Resizes counts in-place growth of a
// recycled workspace; Evictions counts retention-cap demotions;
// PlanHits/PlanMisses partition plan-cache lookups.
type PoolStats = exec.PoolStats

// Stats returns a snapshot of the engine's pool counters. Per-run
// deltas also flow into Options.Stats recorders (the "pool" block of
// the stats JSON).
func (e *Engine) Stats() PoolStats {
	if e == nil {
		return PoolStats{}
	}
	return e.eng.Stats()
}

// Idle reports how many workspaces the engine currently holds in its
// counted idle tier.
func (e *Engine) Idle() int {
	if e == nil {
		return 0
	}
	return e.eng.Idle()
}

// SelfCheck validates the engine's pool invariants: every idle pooled
// workspace must be detached, unpoisoned and reset to its clean state
// (no marked accumulator slots, no touched dense scratch), and the idle
// gauge must match the enumerable population. It returns nil when the
// pool is consistent and a descriptive error naming the first violation
// otherwise. Chaos harnesses call it after every injected fault to
// prove that no corrupted workspace survived into the pool; it is also
// safe (if rarely useful) to call in production, e.g. from a health
// endpoint. A nil engine trivially passes.
func (e *Engine) SelfCheck() error {
	if e == nil {
		return nil
	}
	return e.eng.SelfCheck()
}

// internal returns the exec-layer engine (nil-safe).
func (e *Engine) internal() *exec.Engine {
	if e == nil {
		return nil
	}
	return e.eng
}

// telemetry returns the engine's live-observability registry (nil-safe;
// nil when none was configured).
func (e *Engine) telemetry() *Telemetry {
	if e == nil {
		return nil
	}
	return e.tel
}

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily constructed process-wide shared
// Engine (default retention bounds). Use it when any shared pool will
// do:
//
//	opts := spgemm.Defaults()
//	opts.Engine = spgemm.DefaultEngine()
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = NewEngine(EngineConfig{}) })
	return defaultEngine
}
