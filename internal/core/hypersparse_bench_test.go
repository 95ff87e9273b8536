package core_test

import (
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BenchmarkHypersparseProduct times one warm multiply of the sparse ×
// tall-and-skinny regime at the production tile crossover: the bc-road
// lattice (57 × 100, n = 5 700) times a frontier F of four live rows,
// one per column, as a four-source BC batch starts. Both products are
// below the crossover, so each runs as one tile whose loop walks only
// the rows that can produce output:
//
//   - masked: N ⊙ (A × F) with N the next front (the rows the sources
//     reach), the shape of BC's backward sweep;
//   - complement: ¬F ⊙ (A × F), BC's forward step.
//
// It reports ns/multiply and allocs/op; the allocations are the result
// matrix's, the workspaces coming from the engine's pool.
func BenchmarkHypersparseProduct(b *testing.B) {
	defer core.SetTileCrossoverForTest(core.SetTileCrossoverForTest(core.ProductionCrossover))
	lattice := graphgen.RoadNetwork(57, 100, 0.95, 0x6A9)
	n := lattice.Rows
	coo := sparse.NewCOO[float64](n, 4, 4)
	for s, src := range []int{n / 8, 3 * n / 8, 5 * n / 8, 7 * n / 8} {
		coo.Add(sparse.Index(src), sparse.Index(s), 1)
	}
	f := coo.ToCSR()
	sr := semiring.PlusTimes[float64]{}
	cfg := core.DefaultConfig()
	cfg.Engine = exec.New(exec.Config{})
	next, err := core.MaskedSpGEMMComp[float64](sr, nil, f, lattice, f, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		multiply func() (*sparse.CSR[float64], error)
	}{
		{"masked", func() (*sparse.CSR[float64], error) {
			return core.MaskedSpGEMM[float64](sr, next, lattice, f, cfg)
		}},
		{"complement", func() (*sparse.CSR[float64], error) {
			return core.MaskedSpGEMMComp[float64](sr, nil, f, lattice, f, cfg)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := bc.multiply(); err != nil { // warms the pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.multiply(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/multiply")
		})
	}
}
