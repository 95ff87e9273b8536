package core

import (
	"math/rand"
	"testing"
)

func TestProfileMasked(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	a := randMatrix(30, 30, 0.2, r)
	p, err := ProfileMasked(a, a, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaskNNZ != a.NNZ() {
		t.Errorf("MaskNNZ = %d, want %d", p.MaskNNZ, a.NNZ())
	}
	// Flops must equal the tiling package's independent count.
	var flops int64
	for i := 0; i < a.Rows; i++ {
		for _, k := range a.RowCols(i) {
			flops += a.RowNNZ(int(k))
		}
	}
	if p.Flops != flops {
		t.Errorf("Flops = %d, want %d", p.Flops, flops)
	}
	if p.Eq2Work != p.MaskNNZ+p.Flops {
		t.Error("Eq2Work != MaskNNZ + Flops")
	}
	if p.CoIterPairs+p.LinearPairs != a.NNZ() {
		t.Errorf("decisions %d+%d != nnz(A) %d", p.CoIterPairs, p.LinearPairs, a.NNZ())
	}
	if p.HybridCost > p.Flops && p.CoIterPairs > 0 {
		// Co-iteration is only chosen when modeled cheaper, so the hybrid
		// cost can never exceed the pure-linear cost at κ=1.
		t.Errorf("hybrid cost %d exceeds linear cost %d", p.HybridCost, p.Flops)
	}
	if s := p.PredictedCoIterSpeedup(); s < 1 {
		t.Errorf("predicted speedup %v < 1 at κ=1", s)
	}
	if f := p.CoIterFraction(); f < 0 || f > 1 {
		t.Errorf("co-iteration fraction %v out of range", f)
	}
	if p.String() == "" {
		t.Error("empty profile string")
	}
	// Kappa extremes flip all decisions.
	pAll, _ := ProfileMasked(a, a, a, 1e9)
	if pAll.LinearPairs != 0 {
		t.Error("κ=1e9 must co-iterate everything")
	}
	pNone, _ := ProfileMasked(a, a, a, 1e-9)
	if pNone.CoIterPairs != 0 {
		t.Error("κ=1e-9 must co-iterate nothing")
	}
	// Shape error.
	bad := randMatrix(5, 7, 0.5, r)
	if _, err := ProfileMasked(a, a, bad, 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}
