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

// TestWindowFloorMatchesDerivation is the window floor's drift gate:
// the per-worker bytes core.DeriveAccumulator grants any window must be
// this package's derivation from the reference window sweep.
func TestWindowFloorMatchesDerivation(t *testing.T) {
	if got, want := core.WindowFloor(), DerivedWindowFloor(); got != want {
		t.Errorf("core's window floor is %d bytes, the derivation from ReferenceWindowCosts gives %d: "+
			"update one to match the other (and docs/TUNING.md)", got, want)
	}
}

// TestWindowFloorDerivation pins the derivation's arithmetic: the
// plateau is the median of the smaller half of sizes, the largest size
// within windowSlack of it wins, and a size past a slow one still
// counts.
func TestWindowFloorDerivation(t *testing.T) {
	if r := ReferenceWindowCosts; len(r.DenseNsPerWork) != len(r.Bytes) {
		t.Fatalf("reference sweep has %d sizes and %d times", len(r.Bytes), len(r.DenseNsPerWork))
	}
	for _, tc := range []struct {
		times []float64
		want  int64
	}{
		{[]float64{5, 5, 5.4, 6}, 3 << 10},       // plateau 5: 5.4 is 8 % over, still free
		{[]float64{5, 5, 5.6, 6}, 2 << 10},       // 12 % over: not
		{[]float64{5, 9, 5.2, 9, 9}, 3 << 10},    // plateau 5.2 (median of 5, 9, 5.2)
		{[]float64{4, 5, 5, 5.4, 9, 9}, 4 << 10}, // a fast smallest size does not set it
	} {
		c := WindowCosts{Bytes: []int{1 << 10, 2 << 10, 3 << 10, 4 << 10, 5 << 10, 6 << 10}[:len(tc.times)], DenseNsPerWork: tc.times}
		if got := c.Floor(); got != tc.want {
			t.Errorf("times %v: floor %d, want %d", tc.times, got, tc.want)
		}
	}
}
