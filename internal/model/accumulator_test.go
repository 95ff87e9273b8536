package model

import (
	"testing"

	"maskedspgemm/internal/core"
)

// TestDenseStateFactorMatchesDerivation is the drift gate: the factor
// core.DeriveAccumulator decides on must be this package's derivation
// from the reference accumulator costs, so neither can be retuned alone.
func TestDenseStateFactorMatchesDerivation(t *testing.T) {
	if got, want := core.DenseStateFactor(), DerivedDenseStateFactor(); got != want {
		t.Errorf("core's dense-state factor is %d, the derivation from ReferenceAccumCosts gives %d: "+
			"update one to match the other (and docs/TUNING.md)", got, want)
	}
}

// TestDenseStateFactorDerivation pins the derivation's arithmetic: the
// slowest speedup of the sweep sets the factor, rounded to the nearest
// power of two, and a sweep dense loses anywhere on gives 0.
func TestDenseStateFactorDerivation(t *testing.T) {
	c := AccumCosts{
		Ratios:         []int{2, 8, 64},
		HashNsPerFlop:  []float64{30, 30, 30},
		DenseNsPerFlop: []float64{6, 4, 2},
	}
	if got := c.MinDenseSpeedup(); got != 5 {
		t.Errorf("MinDenseSpeedup = %v, want 5 (the ratio-2 point)", got)
	}
	if r := ReferenceAccumCosts; len(r.HashNsPerFlop) != len(r.Ratios) || len(r.DenseNsPerFlop) != len(r.Ratios) {
		t.Fatalf("reference costs have %d ratios, %d hash and %d dense entries",
			len(r.Ratios), len(r.HashNsPerFlop), len(r.DenseNsPerFlop))
	}
	saved := ReferenceAccumCosts
	defer func() { ReferenceAccumCosts = saved }()
	for _, tc := range []struct {
		dense float64
		want  int64
	}{{6, 4}, {12, 2}, {25, 1}, {31, 0}} {
		ReferenceAccumCosts = AccumCosts{Ratios: []int{4}, HashNsPerFlop: []float64{30}, DenseNsPerFlop: []float64{tc.dense}}
		if got := DerivedDenseStateFactor(); got != tc.want {
			t.Errorf("dense %v ns/flop vs hash 30: factor %d, want %d", tc.dense, got, tc.want)
		}
	}
}
