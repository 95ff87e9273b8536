package spgemm

import (
	"sync"

	"maskedspgemm/internal/exec"
)

// Engine is a shared execution-resource pool: workspaces (accumulators,
// tile staging buffers, dense scratch) and cached structural plans,
// keyed by size class and operand identity. Passing one Engine through
// Options.Engine makes every multiplication that shares it
//
//   - allocation-free in steady state: a warm iterative loop (k-truss
//     rounds, benchmark repetitions) checks the same buffers
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
}

// EngineConfig bounds the Engine's retention. The zero value selects
// the defaults; negative values disable the respective cache.
type EngineConfig struct {
	// MaxIdle caps the workspaces held idle across all size classes; a
	// workspace released past the cap is dropped. 0 = default (64);
	// negative = keep nothing.
	MaxIdle int
	// MaxPlans caps the cached structural plans. 0 = default (64);
	// negative = disable plan caching.
	MaxPlans int
}

// NewEngine builds an Engine with the given retention bounds.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{eng: exec.New(exec.Config{MaxIdle: cfg.MaxIdle, MaxPlans: cfg.MaxPlans})}
}

// PoolStats is a snapshot of an Engine's pool counters. Hits, Misses
// and Steals partition workspace checkouts (a steal recycles a
// compatible larger workspace); Resizes counts in-place growth of a
// recycled workspace; Evictions counts workspaces dropped at the
// retention cap;
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

// Idle reports how many workspaces the engine currently holds idle.
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
