package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
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

// symmetricWithDiagonal is the symmetric a with every diagonal entry
// stored and values that vary and are symmetric: A[i,j] = A[j,i] =
// 1 + (i+j)%7.
func symmetricWithDiagonal(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](a.Rows, a.Cols, 0)
	for i := range a.Rows {
		coo.Add(sparse.Index(i), sparse.Index(i), float64(1+(2*i)%7))
		for _, j := range a.RowCols(i) {
			if int(j) != i {
				coo.Add(sparse.Index(i), j, float64(1+(i+int(j))%7))
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
// entries, empty rows and rows wholly above the diagonal, all on the
// accumulator path; and the three graphs again with diagonal entries and
// symmetric values, stated symmetric, under each verdict forced
// (ForceViewVerdict): the merge kernel and the accumulator path must
// both match Tril. Every
// iteration space runs (Hybrid at κ = 1 and κ = ∞), at one and three
// workers, one-tile and tiled, each view on an engine that has already
// run A ⊙ (A × A).
func TestStreamLowerMatchesTril(t *testing.T) {
	type fixture struct {
		name      string
		a         *sparse.CSR[float64]
		symmetric bool
		merge     bool // the forced verdict, when symmetric
	}
	var graphs []fixture
	for _, g := range []fixture{
		{name: "rmat", a: graphgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)},
		{name: "road", a: graphgen.RoadNetwork(20, 25, 0.9, 3)},
		{name: "er", a: graphgen.ErdosRenyi(400, 3000, 3)},
	} {
		a := g.a.Clone()
		for p := range a.Val {
			a.Val[p] = float64(1 + p%7)
		}
		graphs = append(graphs, fixture{name: g.name, a: a})
		sym := symmetricWithDiagonal(g.a)
		for _, merge := range []bool{false, true} {
			graphs = append(graphs, fixture{name: fmt.Sprintf("%s/symmetric/merge=%v", g.name, merge), a: sym, symmetric: true, merge: merge})
		}
	}
	edges := lowerEdgeCases(90, 5)
	for p := range edges.Val {
		edges.Val[p] = float64(1 + p%7)
	}
	graphs = append(graphs, fixture{name: "edge-cases", a: edges})
	spaces := []struct {
		it    IterationSpace
		kappa float64
	}{{Vanilla, 1}, {MaskLoad, 1}, {CoIter, 1}, {Hybrid, 1}, {Hybrid, math.Inf(1)}}
	sr := semiring.PlusTimes[float64]{}
	for _, g := range graphs {
		a := g.a
		if g.symmetric && !sparse.IsSymmetric(a) {
			t.Fatalf("%s: fixture is not symmetric", g.name)
		}
		l := sparse.Tril(a)
		for _, crossover := range []int64{productionCrossover, 0} {
			for _, workers := range []int{1, 3} {
				for _, sp := range spaces {
					name := fmt.Sprintf("%s/crossover=%d/workers=%d/%v/kappa=%v", g.name, crossover, workers, sp.it, sp.kappa)
					t.Run(name, func(t *testing.T) {
						setCrossover(t, crossover)
						if g.symmetric {
							t.Cleanup(ForceViewVerdict(g.merge))
						}
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
							return MaskedSpGEMMStreamLower[float64](sr, a, g.symmetric, cfg, sink)
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

// TestCountViewWork holds the view's work counts to L built out: rows
// and entries of Tril(a), entries of rows spanning a 64-column window or
// more (or every entry, under a hash accumulator), Flops as Σ over L's
// entries (i, k) of nnz(L[k,:]), and per pair (i, j) the steps of
// merging row i's s entries in (j, i) with row j's r.
func TestCountViewWork(t *testing.T) {
	for _, a := range []*sparse.CSR[float64]{
		graphgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3), graphgen.RoadNetwork(20, 25, 0.9, 3),
	} {
		l := sparse.Tril(a)
		var want ViewWork
		for i := range l.Rows {
			cols := l.RowCols(i)
			if len(cols) == 0 {
				continue
			}
			want.Rows++
			want.Entries += int64(len(cols))
			if cols[len(cols)-1]-cols[0] >= 64 {
				want.Hashed += int64(len(cols))
			}
			for p, j := range cols {
				want.Flops += l.RowNNZ(int(j))
				s, r := int64(len(cols)-1-p), int64(0)
				for _, k := range a.RowCols(int(j)) {
					if k > j && int(k) < i {
						r++
					}
				}
				want.Steps += min(s+r, min(s, r)*int64(bits.Len64(uint64(max(s, r)))))
			}
		}
		wantHash := want
		wantHash.Hashed = want.Entries
		if got := CountViewWork(a, AccumLayout{Kind: accum.DenseKind, Window: 64}); got != want {
			t.Errorf("window 64: CountViewWork = %+v, want %+v", got, want)
		}
		if got := CountViewWork(a, AccumLayout{Kind: accum.HashKind}); got != wantHash {
			t.Errorf("hash: CountViewWork = %+v, want %+v", got, wantHash)
		}
	}
}
