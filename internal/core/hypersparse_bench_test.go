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
// one per column, under the mask N of the next front (each source's
// neighbours in its column): N ⊙ (A × F), the shape of one level of a
// four-source batched traversal. The product is below the crossover, so
// it runs as one tile whose loop walks only the rows that can produce
// output.
//
// It reports ns/multiply and allocs/op; the allocations are the result
// matrix's, the workspaces coming from the engine's pool.
func BenchmarkHypersparseProduct(b *testing.B) {
	defer core.SetTileCrossoverForTest(core.SetTileCrossoverForTest(core.ProductionCrossover))
	lattice := graphgen.RoadNetwork(57, 100, 0.95, 0x6A9)
	n := lattice.Rows
	front := sparse.NewCOO[float64](n, 4, 4)
	next := sparse.NewCOO[float64](n, 4, 16)
	for s, src := range []int{n / 8, 3 * n / 8, 5 * n / 8, 7 * n / 8} {
		front.Add(sparse.Index(src), sparse.Index(s), 1)
		for _, u := range lattice.RowCols(src) {
			next.Add(u, sparse.Index(s), 1)
		}
	}
	f, m := front.ToCSR(), next.ToCSR()
	sr := semiring.PlusTimes[float64]{}
	cfg := core.DefaultConfig()
	cfg.Engine = exec.New(exec.Config{})
	multiply := func() {
		if _, err := core.MaskedSpGEMM[float64](sr, m, lattice, f, cfg); err != nil {
			b.Fatal(err)
		}
	}
	multiply() // warms the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiply()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/multiply")
}
