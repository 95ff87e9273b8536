package core_test

import (
	"testing"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sparse"
)

// BenchmarkSolveOrder times one serial substitution over the trsv-iter
// operand of arabic-2005-sim at benchmark scale (lowerOf the symmetrized
// graph), on the loop every serial solve runs, in the two row orders the
// verdict prices:
//
//   - substitution: rows ascending, the order one worker runs;
//   - level-order: the plan's slot order with grain and merge width 1,
//     so every level wider than one row is a wave of its own — the
//     order a wave's tiles walk.
//
// Their ns/nnz are solveSubstNsPerNnz and solveLevelNsPerNnz
// (internal/core/solve.go). arabic-2005-sim is the corpus graph with the
// most multi-tile waves, so the one whose verdict the gap decides.
func BenchmarkSolveOrder(b *testing.B) {
	spec, ok := bench.FindGraph("arabic-2005-sim")
	if !ok {
		b.Fatal("unknown graph arabic-2005-sim")
	}
	l := lowerOf(sparse.Symmetrize(spec.Build(0)))
	levelOrder := planOf(b, l, core.SolveOpts{WaveGrain: 1, MergeBelow: 1}, 1).Order
	rhs := make([]float64, l.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	dst := make([]float64, l.Rows)
	for _, col := range []struct {
		name string
		rows []sparse.Index
	}{
		{"substitution", nil},
		{"level-order", levelOrder},
	} {
		b.Run(spec.Name+"/"+col.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := core.SolveSerialInOrder(dst, l, rhs, col.rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(l.NNZ()), "ns/nnz")
		})
	}
}
