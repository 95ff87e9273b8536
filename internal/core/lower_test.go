package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// streamedRows runs a streaming product and reassembles the rows its
// sink receives, in row order, so two streams compare row for row.
func streamedRows(rows, cols int, stream func(sink func(int, []sparse.Index, []float64)) error) (*sparse.CSR[float64], error) {
	type row struct {
		cols []sparse.Index
		vals []float64
	}
	got := make([]row, rows)
	err := stream(func(i int, cols []sparse.Index, vals []float64) {
		got[i] = row{append([]sparse.Index(nil), cols...), append([]float64(nil), vals...)}
	})
	c := sparse.NewCSR[float64](rows, cols, 0)
	for i, r := range got {
		c.AppendRow(i, r.cols, r.vals)
	}
	return c, err
}

// lowerEdgeCases is a square matrix that is not an adjacency: it holds
// diagonal entries, empty rows and rows lying wholly above the
// diagonal.
func lowerEdgeCases(n int, seed int64) *sparse.CSR[float64] {
	r := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := range n {
		switch {
		case i%7 == 3: // empty
		case i%5 == 1: // wholly above the diagonal
			for j := i + 1; j < n; j += 1 + r.Intn(4) {
				coo.Add(sparse.Index(i), sparse.Index(j), 1)
			}
		default:
			for j := range n {
				if j == i || r.Float64() < 0.2 {
					coo.Add(sparse.Index(i), sparse.Index(j), 1)
				}
			}
		}
	}
	return coo.ToCSR()
}

// TestStreamLowerMatchesTril holds the lower view to the matrix it
// stands for: MaskedSpGEMMStreamLower(a) delivers exactly the rows,
// columns and values that MaskedSpGEMMStream delivers on a materialized
// L = Tril(a), for L ⊙ (L × L) over PlusTimes. It covers skewed, road
// and uniform graphs with varied values, and a matrix with diagonal
// entries, empty rows and rows wholly above the diagonal. Every
// iteration space runs (Hybrid at κ = 1 and κ = ∞), at one and three
// workers, one-tile and tiled, each view on an engine that has already
// run A ⊙ (A × A), so the view runs on A's cached plan.
func TestStreamLowerMatchesTril(t *testing.T) {
	graphs := []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"rmat", graphgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)},
		{"road", graphgen.RoadNetwork(20, 25, 0.9, 3)},
		{"er", graphgen.ErdosRenyi(400, 3000, 3)},
		{"edge-cases", lowerEdgeCases(90, 5)},
	}
	spaces := []struct {
		it    IterationSpace
		kappa float64
	}{{Vanilla, 1}, {MaskLoad, 1}, {CoIter, 1}, {Hybrid, 1}, {Hybrid, math.Inf(1)}}
	sr := semiring.PlusTimes[float64]{}
	for _, g := range graphs {
		a := g.a.Clone()
		for p := range a.Val {
			a.Val[p] = float64(1 + p%7)
		}
		l := sparse.Tril(a)
		for _, crossover := range []int64{productionCrossover, 0} {
			for _, workers := range []int{1, 3} {
				for _, sp := range spaces {
					name := fmt.Sprintf("%s/crossover=%d/workers=%d/%v/kappa=%v", g.name, crossover, workers, sp.it, sp.kappa)
					t.Run(name, func(t *testing.T) {
						setCrossover(t, crossover)
						cfg := DefaultConfig()
						cfg.Workers, cfg.Tiles, cfg.Iteration, cfg.Kappa = workers, 16, sp.it, sp.kappa
						want, err := streamedRows(l.Rows, l.Cols, func(sink func(int, []sparse.Index, []float64)) error {
							return MaskedSpGEMMStream[float64](sr, l, l, l, cfg, sink)
						})
						if err != nil {
							t.Fatal(err)
						}
						cfg.Engine = exec.New(exec.Config{})
						if _, err := MaskedSpGEMM[float64](sr, a, a, a, cfg); err != nil {
							t.Fatal(err)
						}
						got, err := streamedRows(a.Rows, a.Cols, func(sink func(int, []sparse.Index, []float64)) error {
							return MaskedSpGEMMStreamLower[float64](sr, a, cfg, sink)
						})
						if err != nil {
							t.Fatal(err)
						}
						if !sparse.Equal(want, got) {
							t.Fatalf("the lower view streams %d entries, Tril %d, or they differ", got.NNZ(), want.NNZ())
						}
					})
				}
			}
		}
	}
}
