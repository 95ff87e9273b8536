package core

import (
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// families are small instances of every structural family the corpus
// uses; the integration suite runs every kernel formulation on each and
// demands bit-identical results.
var families = map[string]func() *sparse.CSR[float64]{
	"social":  func() *sparse.CSR[float64] { return graphgen.RMAT(8, 10, 0.57, 0.19, 0.19, 1) },
	"road":    func() *sparse.CSR[float64] { return graphgen.RoadNetwork(20, 18, 0.93, 2) },
	"web":     func() *sparse.CSR[float64] { return graphgen.WebGraph(350, 9, 0.55, 3) },
	"circuit": func() *sparse.CSR[float64] { return graphgen.Circuit(320, 3, 0.6, 3, 50, 4) },
	"smallw":  func() *sparse.CSR[float64] { return graphgen.SmallWorld(300, 6, 0.1, 5) },
	"geo":     func() *sparse.CSR[float64] { return graphgen.Geometric(250, 0.09, 6) },
}

// TestAllFormulationsAgreeOnAllFamilies is the repository's central
// integration test: on every graph family, every kernel formulation —
// all iteration spaces, all accumulators, the transposed problem, the
// prepared and instrumented runs — must produce the same CSR bits for
// C = A ⊙ (A×A) as the default product, and that product must equal the
// two references that share no code with the tile loop: the two-step
// ApplyMask(A, SpGEMM(A, A)) bit for bit, and the dense oracle.
func TestAllFormulationsAgreeOnAllFamilies(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	for name, build := range families {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			a := build()
			ref, err := MaskedSpGEMM[float64](sr, a, a, a, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}

			for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
				for _, ak := range []accum.Kind{
					accum.DenseKind, accum.HashKind,
					accum.DenseExplicitKind, accum.HashExplicitKind,
				} {
					cfg := Config{
						Iteration: it, Kappa: 1, Accumulator: ak, MarkerBits: 16,
						Tiles: 9, Tiling: tiling.FlopBalanced,
						Schedule: sched.Dynamic, Workers: 2,
					}
					got, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
					if err != nil {
						t.Fatalf("%v/%v: %v", it, ak, err)
					}
					if !sparse.Equal(ref, got) {
						t.Fatalf("%v/%v differs", it, ak)
					}
				}
			}

			// The references that share no code with the tile loop: the
			// two-step product (unmasked SpGEMM, then ApplyMask) bit for
			// bit, and the dense oracle by value.
			full, err := SpGEMM[float64](sr, a, a)
			if err != nil {
				t.Fatal(err)
			}
			twoStep, err := ApplyMask(a, full)
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(ref, twoStep) {
				t.Fatal("differs from ApplyMask(A, SpGEMM(A, A))")
			}
			checkAgainstOracle(t, a, a, a, DefaultConfig())

			at := sparse.Transpose(a)
			// The transpose law (M ⊙ (A×B))ᵀ = Mᵀ ⊙ (Bᵀ×Aᵀ): the paper's
			// §II-A column-wise formulation is the row-wise kernel on
			// transposed operands, bit for bit.
			gotT, err := MaskedSpGEMM[float64](sr, at, at, at, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(ref, sparse.Transpose(gotT)) {
				t.Fatal("transpose law violated")
			}

			multiply, _, err := prepared(a, a, a, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := multiply()
				if err != nil {
					t.Fatalf("prepared rep %d: %v", rep, err)
				}
				if !sparse.Equal(ref, got) {
					t.Fatalf("prepared rep %d differs", rep)
				}
			}

			gotInstr, counters, err := MaskedSpGEMMInstrumented[float64](sr, a, a, a, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(ref, gotInstr) {
				t.Fatal("instrumented kernel differs")
			}
			if counters.Gathered != ref.NNZ() {
				t.Fatalf("counters gathered %d, want %d", counters.Gathered, ref.NNZ())
			}

			// Masked + complement partition the unmasked product.
			comp, err := MaskedSpGEMMComp[float64](sr, nil, a, a, a, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if ref.NNZ()+comp.NNZ() != full.NNZ() {
				t.Fatalf("partition broken: %d + %d != %d", ref.NNZ(), comp.NNZ(), full.NNZ())
			}
		})
	}
}
