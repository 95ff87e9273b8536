package model

import (
	"math"
	"slices"
)

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

// The window floor, derived: core.DeriveAccumulator lets every worker
// hold core.WindowFloor bytes of dense window whatever the hash table it
// replaces would take, and the test beside this fails when the two
// drift.

// WindowCosts are the dense accumulator's times per unit of Eq. 2 work
// (ns/work) swept over the bytes of its state, ascending: the medians of
// the root package's BenchmarkAccumulatorChoice Window/bytes=B rows.
type WindowCosts struct {
	Bytes          []int
	DenseNsPerWork []float64
}

// ReferenceWindowCosts are the medians of fifteen runs of the Window
// rows of BenchmarkAccumulatorChoice on the 2-vCPU reference host.
var ReferenceWindowCosts = WindowCosts{
	Bytes:          []int{3 << 10, 6 << 10, 12 << 10, 24 << 10, 48 << 10, 96 << 10, 192 << 10, 384 << 10, 768 << 10, 1536 << 10},
	DenseNsPerWork: []float64{4.71, 5.47, 5.49, 5.89, 5.87, 5.87, 6.07, 6.59, 7.36, 11.10},
}

// windowSlack is how much slower than the plateau a state may run and
// still count as free: about the run-to-run spread of one size's
// readings.
const windowSlack = 0.10

// Floor is the largest swept state that runs within windowSlack of the
// plateau — the median time of the sweep's smaller half of sizes, all
// cache-resident, so one noisy size cannot move it: up to the floor a
// window costs no measurable time, past it only the relative rule
// (core.DenseStateFactor × the hash table) may justify the bytes.
func (c WindowCosts) Floor() int64 {
	lower := slices.Clone(c.DenseNsPerWork[:(len(c.DenseNsPerWork)+1)/2])
	slices.Sort(lower)
	plateau := (lower[(len(lower)-1)/2] + lower[len(lower)/2]) / 2
	var floor int64
	for i, t := range c.DenseNsPerWork {
		if t <= plateau*(1+windowSlack) {
			floor = int64(c.Bytes[i])
		}
	}
	return floor
}

// DerivedWindowFloor is the value core's window floor must hold.
func DerivedWindowFloor() int64 { return ReferenceWindowCosts.Floor() }
