package exec

import (
	"errors"
	"fmt"

	"maskedspgemm/internal/accum"
)

// poolChecker is implemented by every pooled object so SelfCheck can
// validate the clean-reuse invariant without knowing the generic
// instantiation.
type poolChecker interface {
	poolCheck() error
}

// SelfCheck validates the engine's pool invariants: each idle gauge
// matches its pooled population, every pooled workspace is released
// (unbound from any engine), unpoisoned, and clean — explicit-reset
// accumulators with every live slot accounted for — and every pooled
// staging set is unbound. It is the chaos suite's gate: after a seeded
// fault matrix, a non-nil result means a dirty or leaked workspace
// survived quarantine. O(pooled state), intended for tests and admin
// probes, not hot paths. Nil engines trivially pass.
func (e *Engine) SelfCheck() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	population := 0
	for key, b := range e.buckets {
		for i := range b.hot {
			population++
			pc, ok := b.hot[i].ws.(poolChecker)
			if !ok {
				return fmt.Errorf("exec: pooled object %T is not self-checkable", b.hot[i].ws)
			}
			if err := pc.poolCheck(); err != nil {
				return fmt.Errorf("exec: bucket %v slot %d: %w", key, i, err)
			}
		}
	}
	if population != e.idle {
		return fmt.Errorf("exec: idle gauge %d != pooled population %d", e.idle, population)
	}
	population = 0
	for typ, b := range e.stagings {
		for i := range b.hot {
			population++
			pc, ok := b.hot[i].ws.(poolChecker)
			if !ok {
				return fmt.Errorf("exec: pooled object %T is not self-checkable", b.hot[i].ws)
			}
			if err := pc.poolCheck(); err != nil {
				return fmt.Errorf("exec: staging pool %v slot %d: %w", typ, i, err)
			}
		}
	}
	if population != e.stagingIdle {
		return fmt.Errorf("exec: staging idle gauge %d != pooled population %d", e.stagingIdle, population)
	}
	return nil
}

// poolCheck validates one pooled workspace's clean-reuse invariant.
func (ws *Workspace[T, S]) poolCheck() error {
	if ws.engine != nil {
		return errors.New("pooled workspace still bound to an engine")
	}
	if ws.poisoned {
		return errors.New("poisoned workspace present in pool")
	}
	for w, acc := range ws.Accs {
		if c, ok := acc.(accum.Checkable); ok {
			if err := c.CheckClean(); err != nil {
				return fmt.Errorf("accumulator %d: %w", w, err)
			}
		}
	}
	return nil
}
