package model

import "math"

// The dense-state factor, derived. core.DeriveAccumulator picks the
// dense accumulator for a product when its state is at most
// core.DenseStateFactor times the bytes of the hash table it would
// replace; this file is where that constant comes from, and the test
// beside it fails when the two drift.

// AccumCosts are the two accumulator families' times per FLOP on one
// masked product shape swept over the column-to-row-capacity ratio: the
// medians of the root package's BenchmarkAccumulatorChoice, whose hash
// table is exactly 2·RowCap slots wide at every ratio.
type AccumCosts struct {
	// Ratios are the swept cols/RowCap values.
	Ratios []int
	// HashNsPerFlop and DenseNsPerFlop are the times per FLOP at each
	// ratio (ns/flop of the Hash/ratio=r and Dense/ratio=r rows).
	HashNsPerFlop, DenseNsPerFlop []float64
}

// ReferenceAccumCosts are the medians of seven runs of
// BenchmarkAccumulatorChoice on the 2-vCPU reference host.
var ReferenceAccumCosts = AccumCosts{
	Ratios:         []int{2, 4, 8, 16, 64},
	HashNsPerFlop:  []float64{32.57, 37.28, 36.49, 36.96, 32.01},
	DenseNsPerFlop: []float64{17.56, 10.76, 9.81, 5.85, 4.45},
}

// MinDenseSpeedup is the smallest hash-over-dense time ratio of the
// sweep: the speedup dense is known to deliver at any ratio the sweep
// covers.
func (c AccumCosts) MinDenseSpeedup() float64 {
	s := math.Inf(1)
	for i := range c.Ratios {
		s = min(s, c.HashNsPerFlop[i]/c.DenseNsPerFlop[i])
	}
	return s
}

// DerivedDenseStateFactor is the value core's constant must hold. Both
// families do the same work, dense in 1/s of hash's time; the planner
// spends state on speed at about the exchange rate it is sure of, so
// dense may hold MinDenseSpeedup times the hash table's bytes and its
// space-time product (bytes held × time per FLOP) stays near or below
// hash's wherever the sweep holds. Rounded to the nearest power of two:
// the factor is a coarse bound, and the sweep's slowest point moves by
// ±10 % from run to run. 0 (never dense) when dense is not faster
// somewhere on the sweep.
func DerivedDenseStateFactor() int64 {
	s := ReferenceAccumCosts.MinDenseSpeedup()
	if s < 1 {
		return 0
	}
	return 1 << int(math.Round(math.Log2(s)))
}
