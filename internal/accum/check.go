package accum

import (
	"fmt"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Checkable is the optional clean-state audit interface consumed by
// exec.Engine.SelfCheck: CheckClean returns nil when the accumulator is
// safe for pooled reuse — the next BeginRow can restore a pristine row
// state. For the marker families that is true by construction (stale
// state is invisible behind the marker); for the explicit-reset
// families it requires every live slot to be tracked, which a panic
// inside a table grow can violate. Following the Instrumented pattern,
// the interface is optional so Accumulator itself stays minimal.
type Checkable interface {
	CheckClean() error
}

// GrowHooked is the optional fault-injection seam on growable
// accumulators: the hook runs at the entry of every table grow, before
// any state is moved. The chaos layer arms it per run (and disarms it
// before the workspace is released, so hooks never leak into the
// pool); a nil hook is the disabled state.
type GrowHooked interface {
	SetGrowHook(func())
}

// CheckClean on the marker-based hash accumulator validates table
// structure only: stale entries are invisible behind the marker, so any
// structurally sound table is clean by construction.
func (h *Hash[T, S, M]) CheckClean() error {
	n := len(h.keys)
	if len(h.vals) != n || len(h.state) != n {
		return fmt.Errorf("hash table arrays disagree: keys %d, vals %d, state %d",
			n, len(h.vals), len(h.state))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("hash table capacity %d is not a power of two", n)
	}
	return nil
}

// SetGrowHook arms (or, with nil, disarms) the grow seam.
func (h *Hash[T, S, M]) SetGrowHook(f func()) { h.growHook = f }

// CheckClean on the explicit-reset hash accumulator verifies that every
// live-looking slot is tracked in the live list — the condition under
// which the next BeginRow clears the whole row. An untracked live slot
// (a panic between a grow and the live-list rebuild) would leak stale
// entries into later rows.
func (h *HashExplicit[T, S]) CheckClean() error {
	if err := h.inner.CheckClean(); err != nil {
		return err
	}
	mask, entry := h.inner.mask, h.inner.mask+1
	tracked := make(map[int]bool, len(h.live))
	for _, slot := range h.live {
		tracked[slot] = true
	}
	for slot, st := range h.inner.state {
		if (st == mask || st == entry) && !tracked[slot] {
			return fmt.Errorf("hash-explicit slot %d holds live state %d outside the live list; BeginRow cannot clear it", slot, st)
		}
	}
	return nil
}

// SetGrowHook arms the inner table's grow seam.
func (h *HashExplicit[T, S]) SetGrowHook(f func()) { h.inner.SetGrowHook(f) }

// CheckClean on the marker-based dense accumulator validates array
// structure only — the window's and the spill table's: the marker makes
// stale state invisible.
func (d *Dense[T, S, M]) CheckClean() error {
	if len(d.state) != len(d.vals) {
		return fmt.Errorf("dense arrays disagree: state %d, vals %d", len(d.state), len(d.vals))
	}
	if d.spill != nil {
		if err := d.spill.CheckClean(); err != nil {
			return fmt.Errorf("dense spill table: %w", err)
		}
	}
	return nil
}

// SetGrowHook arms (or disarms) the spill table's grow seam, and the
// one a spill table built later inherits; the window never grows.
func (d *Dense[T, S, M]) SetGrowHook(f func()) {
	d.growHook = f
	if d.spill != nil {
		d.spill.SetGrowHook(f)
	}
}

// CheckClean on the explicit-reset dense accumulator verifies that
// every set state slot is tracked in the touched list, so the next
// BeginRow restores the all-clear state.
func (d *DenseExplicit[T, S]) CheckClean() error {
	tracked := make(map[sparse.Index]bool, len(d.touched))
	for _, j := range d.touched {
		tracked[j] = true
	}
	for j, st := range d.state {
		if st != 0 && !tracked[sparse.Index(j)] {
			return fmt.Errorf("dense-explicit state[%d] = %d outside the touched list; BeginRow cannot clear it", j, st)
		}
	}
	return nil
}

type ptSR = semiring.PlusTimes[float64]

var (
	_ Checkable  = (*Hash[float64, ptSR, uint32])(nil)
	_ Checkable  = (*HashExplicit[float64, ptSR])(nil)
	_ Checkable  = (*Dense[float64, ptSR, uint32])(nil)
	_ Checkable  = (*DenseExplicit[float64, ptSR])(nil)
	_ GrowHooked = (*Hash[float64, ptSR, uint32])(nil)
	_ GrowHooked = (*HashExplicit[float64, ptSR])(nil)
	_ GrowHooked = (*Dense[float64, ptSR, uint32])(nil)
)
