package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// denseComplementOracle computes ¬M ⊙ (A × B) densely.
func denseComplementOracle(m *sparse.Dense[uint8], a, b *sparse.Dense[float64]) *sparse.Dense[float64] {
	full := sparse.MatMulDense(a, b)
	for i := 0; i < full.Rows; i++ {
		for j := 0; j < full.Cols; j++ {
			if m.At(i, j) != 0 {
				full.Set(i, j, 0)
			}
		}
	}
	return full
}

func TestMaskedSpGEMMCompVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := r.Intn(22)+1, r.Intn(22)+1, r.Intn(22)+1
		a := randMatrix(rows, inner, 0.25, r)
		b := randMatrix(inner, cols, 0.25, r)
		m := randMatrix(rows, cols, 0.3, r)
		cfg := DefaultConfig()
		cfg.Tiles = r.Intn(5) + 1
		cfg.Workers = 2
		got, err := MaskedSpGEMMComp[float64](semiring.PlusTimes[float64]{}, nil, m, a, b, cfg)
		if err != nil {
			return false
		}
		if got.Check() != nil {
			return false
		}
		want := denseComplementOracle(sparse.DensePattern(m), sparse.ToDense(a), sparse.ToDense(b))
		gd := sparse.ToDense(got)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if gd.At(i, j) != want.At(i, j) {
					return false
				}
			}
		}
		// No output entry may coincide with a mask entry.
		for i := 0; i < got.Rows; i++ {
			for _, j := range got.RowCols(i) {
				if m.Has(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMaskedSpGEMMCompComplementary(t *testing.T) {
	// The masked and complement-masked products partition the unmasked
	// product: C_masked ∪ C_comp = A×B with disjoint structures.
	r := rand.New(rand.NewSource(97))
	a := randMatrix(30, 30, 0.15, r)
	cfg := DefaultConfig()
	cfg.Workers = 2
	sr := semiring.PlusTimes[float64]{}
	masked, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := MaskedSpGEMMComp[float64](sr, nil, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SpGEMM[float64](sr, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if masked.NNZ()+comp.NNZ() != full.NNZ() {
		t.Fatalf("partition broken: %d + %d != %d", masked.NNZ(), comp.NNZ(), full.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		for _, j := range masked.RowCols(i) {
			if comp.Has(i, j) {
				t.Fatalf("entry (%d,%d) in both masked and complement results", i, j)
			}
		}
	}
}

func TestMaskedSpGEMMCompEmptyMask(t *testing.T) {
	// An empty mask complements to everything: result = full product.
	r := rand.New(rand.NewSource(98))
	a := randMatrix(20, 20, 0.2, r)
	empty := sparse.NewCOO[float64](20, 20, 0).ToCSR()
	cfg := DefaultConfig()
	sr := semiring.PlusTimes[float64]{}
	got, err := MaskedSpGEMMComp[float64](sr, nil, empty, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SpGEMM[float64](sr, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("complement of empty mask must equal the unmasked product")
	}
}

func TestMaskedSpGEMMCompErrors(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	a := randMatrix(5, 6, 0.5, r)
	b := randMatrix(7, 5, 0.5, r)
	m := randMatrix(5, 5, 0.5, r)
	if _, err := MaskedSpGEMMComp[float64](semiring.PlusTimes[float64]{}, nil, m, a, b, DefaultConfig()); err == nil {
		t.Error("shape mismatch accepted")
	}
	z := sparse.NewCSR[float64](0, 0, 0)
	if got, err := MaskedSpGEMMComp[float64](semiring.PlusTimes[float64]{}, nil, z, z, z, DefaultConfig()); err != nil || got.Rows != 0 {
		t.Errorf("zero rows: %v %v", got, err)
	}
}
