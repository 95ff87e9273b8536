package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

func TestMaskedSpGEMM2DMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	m := randMatrix(35, 35, 0.2, r)
	a := randMatrix(35, 35, 0.15, r)
	b := randMatrix(35, 35, 0.15, r)
	for _, panels := range []int{1, 2, 4, 16, 100} {
		cfg := DefaultConfig()
		cfg.Tiles = 5
		cfg.Workers = 2
		got, err := MaskedSpGEMM2D[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg, panels)
		if err != nil {
			t.Fatalf("panels=%d: %v", panels, err)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("panels=%d: malformed: %v", panels, err)
		}
		want := sparse.MaskedMatMulDense(sparse.DensePattern(m), sparse.ToDense(a), sparse.ToDense(b))
		gd := sparse.ToDense(got)
		for i := 0; i < 35; i++ {
			for j := 0; j < 35; j++ {
				if gd.At(i, j) != want.At(i, j) {
					t.Fatalf("panels=%d: C[%d,%d] = %v, want %v", panels, i, j, gd.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestMaskedSpGEMM2DMatches1D(t *testing.T) {
	// The 2-D kernel must produce bit-identical CSR to the 1-D kernel.
	f := func(seed int64, panelsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 1
		a := randMatrix(n, n, 0.25, r)
		cfg := DefaultConfig()
		cfg.Tiles = r.Intn(6) + 1
		cfg.Workers = 2
		want, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
		if err != nil {
			return false
		}
		got, err := MaskedSpGEMM2D[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg, int(panelsRaw%10)+1)
		if err != nil {
			return false
		}
		return sparse.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMaskedSpGEMM2DRectangular(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	a := randMatrix(12, 40, 0.2, r)
	b := randMatrix(40, 18, 0.2, r)
	m := randMatrix(12, 18, 0.35, r)
	cfg := DefaultConfig()
	cfg.Tiles = 3
	got, err := MaskedSpGEMM2D[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("2-D result differs on rectangular operands")
	}
}

func TestMaskedSpGEMM2DEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	sr := semiring.PlusTimes[float64]{}
	z := sparse.NewCSR[float64](0, 0, 0)
	got, err := MaskedSpGEMM2D[float64](sr, z, z, z, cfg, 4)
	if err != nil || got.Rows != 0 {
		t.Errorf("zero-rows: %v %v", got, err)
	}
	r := rand.New(rand.NewSource(74))
	a := randMatrix(6, 7, 0.5, r)
	bad := randMatrix(9, 6, 0.5, r)
	mm := randMatrix(6, 6, 0.5, r)
	if _, err := MaskedSpGEMM2D[float64](sr, mm, a, bad, cfg, 4); err == nil {
		t.Error("shape mismatch accepted")
	}
	badCfg := cfg
	badCfg.Tiles = 0
	if _, err := MaskedSpGEMM2D[float64](sr, mm, a, a, badCfg, 4); err == nil {
		t.Error("invalid config accepted")
	}
	// Panel counts beyond the dimension clamp.
	small := randMatrix(4, 4, 0.5, r)
	if _, err := MaskedSpGEMM2D[float64](sr, small, small, small, cfg, 1000); err != nil {
		t.Errorf("huge panel count: %v", err)
	}
	if _, err := MaskedSpGEMM2D[float64](sr, small, small, small, cfg, 0); err != nil {
		t.Errorf("zero panels must degrade to 1: %v", err)
	}
}

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
