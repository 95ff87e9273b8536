package core

import (
	"time"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/sparse"
)

// Resilience bundles the failure-hardening knobs of Config behind one
// pointer, so the production configuration pays a single nil word for
// all of them. Keeping Config itself small matters: each run captures
// its private Config copy in the tile closure, and a Config over the
// compiler's by-value capture threshold (128 bytes) costs an extra heap
// object per run.
type Resilience struct {
	// Chaos, when non-nil, arms the fault-injection seams along the
	// kernel path: tile claim and worker spawn in the scheduler, the
	// row-kernel entry, and accumulator grows (workspace checkout/
	// release and plan-cache stores fire through the Engine's own
	// Config). A nil injector is the production state; every seam is
	// then a single pointer comparison.
	Chaos chaos.Injector
	// StallTimeout, when positive, arms the scheduler's stall watchdog:
	// a run whose workers complete no tile for a full timeout while
	// tiles remain fails with ErrStalled (carrying a *sched.StallError
	// with all-goroutine stacks). Zero disables the watchdog — the
	// disabled path spawns no goroutine and counts nothing.
	StallTimeout time.Duration
}

// chaosInjector resolves the armed injector, nil in production.
func (c Config) chaosInjector() chaos.Injector {
	if c.Resilience == nil {
		return nil
	}
	return c.Resilience.Chaos
}

// stallTimeout resolves the watchdog window, 0 when disarmed.
func (c Config) stallTimeout() time.Duration {
	if c.Resilience == nil {
		return 0
	}
	return c.Resilience.StallTimeout
}

// armAccumChaos arms the AccumGrow seam on every grow-hookable
// accumulator and returns the disarm function, which MUST run before
// the workspace is released — a hook holds the run's injector and must
// never leak into the pool. With a nil injector nothing is armed and
// the disarm is a no-op.
func armAccumChaos[T sparse.Number](cfg Config, accs []accum.Accumulator[T]) (disarm func()) {
	inj := cfg.chaosInjector()
	if inj == nil {
		return func() {}
	}
	var hooked []accum.GrowHooked
	for _, ac := range accs {
		if gh, ok := ac.(accum.GrowHooked); ok {
			gh.SetGrowHook(func() { chaos.StepHard(inj, chaos.AccumGrow) })
			hooked = append(hooked, gh)
		}
	}
	return func() {
		for _, gh := range hooked {
			gh.SetGrowHook(nil)
		}
	}
}
