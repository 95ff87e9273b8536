package accum

import (
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TestHashProbeCounting verifies the gated probe counters: zero while
// disabled, exact per-lookup accounting once enabled.
func TestHashProbeCounting(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	h := NewHash[float64, semiring.PlusTimes[float64], uint32](sr, 8)
	mask := []sparse.Index{1, 3, 5}

	h.BeginRow()
	h.LoadMask(mask)
	h.Update(3, 1.0)
	if s := h.AccumStats(); s.Probes != 0 || s.Collisions != 0 {
		t.Fatalf("disabled accumulator counted probes: %+v", s)
	}

	h.EnableStats()
	h.BeginRow()
	h.LoadMask(mask)       // 3 probes
	h.UpdateMasked(3, 2.0) // 1 probe
	h.UpdateMasked(2, 2.0) // 1 probe (miss)
	var cols []sparse.Index
	var vals []float64
	cols, _ = h.Gather(mask, cols, vals) // 3 probes
	if len(cols) != 1 {
		t.Fatalf("gathered %d entries, want 1", len(cols))
	}
	s := h.AccumStats()
	if s.Probes != 8 {
		t.Fatalf("probes = %d, want 8", s.Probes)
	}
	if s.Collisions < 0 || s.Collisions > s.Probes {
		t.Fatalf("collisions = %d out of range", s.Collisions)
	}
}

// TestStatsSubAdd exercises the delta helpers the kernel snapshots with.
func TestStatsSubAdd(t *testing.T) {
	a := Stats{Clears: 5, Grows: 2, Probes: 100, Collisions: 7}
	b := Stats{Clears: 3, Grows: 2, Probes: 40, Collisions: 1}
	d := a.Sub(b)
	if d != (Stats{Clears: 2, Grows: 0, Probes: 60, Collisions: 6}) {
		t.Fatalf("sub = %+v", d)
	}
	var sum Stats
	sum.Add(b)
	sum.Add(d)
	if sum != a {
		t.Fatalf("add = %+v, want %+v", sum, a)
	}
}

// TestInstrumentedCoverage checks every accumulator New can build
// implements Instrumented, so the kernel's type assertion never misses.
func TestInstrumentedCoverage(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	for _, kind := range []Kind{DenseKind, HashKind, DenseExplicitKind, HashExplicitKind} {
		ac := New[float64](kind, sr, 64, 8, 32)
		in, ok := ac.(Instrumented)
		if !ok {
			t.Fatalf("%v does not implement Instrumented", kind)
		}
		in.EnableStats()
		_ = in.AccumStats()
	}
}

// TestHashExplicitStats verifies the explicit-reset wrapper delegates
// to its inner table and keeps Clears at zero by construction.
func TestHashExplicitStats(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	h := NewHashExplicit[float64, semiring.PlusTimes[float64]](sr, 8)
	h.EnableStats()
	h.BeginRow()
	h.LoadMask([]sparse.Index{0, 1, 2})
	s := h.AccumStats()
	if s.Probes != 3 {
		t.Fatalf("probes = %d, want 3", s.Probes)
	}
	if s.Clears != 0 {
		t.Fatalf("explicit reset should never clear, got %d", s.Clears)
	}
}
