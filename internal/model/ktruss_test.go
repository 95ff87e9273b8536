package model

import (
	"math"
	"testing"

	"maskedspgemm/internal/graph"
)

// TestRoundWeightsMatchDerivation is the drift gate: the probe weight
// graph's round rule prices with must be this package's derivation from
// the measured round costs, so neither can be retuned alone.
func TestRoundWeightsMatchDerivation(t *testing.T) {
	if got, want := graph.RoundWeights(), DerivedRoundWeights(); got != want {
		t.Errorf("graph's probe weight is %v, the derivation from ReferenceRoundCosts gives %v: "+
			"update one to match the other (and docs/TUNING.md)", got, want)
	}
}

// TestRoundCostSplit pins the split's arithmetic: two kinds of round
// whose times are 10 ns per visit plus 2 ns per probe give those costs
// back, and a reference whose full rounds probed no more per visit than
// its delta rounds could not be split.
func TestRoundCostSplit(t *testing.T) {
	c := RoundCosts{FullNsPerVisit: 10 + 2*12, FullProbesPerVisit: 12, DeltaNsPerVisit: 10 + 2*1.5, DeltaProbesPerVisit: 1.5}
	if v, p := c.Split(); math.Abs(v-10) > 1e-12 || math.Abs(p-2) > 1e-12 {
		t.Errorf("Split = (%v, %v), want (10, 2)", v, p)
	}
	r := ReferenceRoundCosts
	if !(r.FullProbesPerVisit > r.DeltaProbesPerVisit) {
		t.Fatalf("reference full rounds probe %v per visit, delta rounds %v: the split needs full > delta",
			r.FullProbesPerVisit, r.DeltaProbesPerVisit)
	}
	if v, p := r.Split(); !(v > 0 && p > 0) {
		t.Errorf("reference costs split into visit %v ns and probe %v ns; want both positive", v, p)
	}
}
