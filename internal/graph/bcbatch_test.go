package graph

import (
	"fmt"
	"slices"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// bcBatchWhole is the whole-graph batched-Brandes formulation the
// compact fronts replace, kept as the differential reference: every
// product runs on the full n×n adjacency and n×s fronts, and the
// visited set is a CSR grown by one union per level. It pulls its
// forward step along A's rows, so it agrees with Brandes only on a
// symmetric A.
func bcBatchWhole(a *sparse.CSR[float64], sources []int, cfg core.Config, fused bool) ([]float64, error) {
	n, s := a.Rows, len(sources)
	bc := make([]float64, n)
	if s == 0 || n == 0 {
		return bc, nil
	}
	sr := semiring.PlusTimes[float64]{}
	front := sparse.NewCOO[float64](n, s, int64(s))
	sigma := make([]float64, n*s)
	for b, src := range sources {
		front.Add(sparse.Index(src), sparse.Index(b), 1)
		sigma[src*s+b] = 1
	}
	f := front.ToCSR()
	visited := f.Clone()
	fronts := []*sparse.CSR[float64]{f}
	for f.NNZ() > 0 {
		next, err := core.MaskedSpGEMMComp[float64](sr, visited, a, f, cfg)
		if err != nil {
			return nil, err
		}
		if next.NNZ() == 0 {
			break
		}
		for i := range n {
			cols, vals := next.Row(i)
			for p, b := range cols {
				sigma[i*s+int(b)] += vals[p]
			}
		}
		if visited, err = core.EWiseAdd[float64](sr, visited, next); err != nil {
			return nil, err
		}
		fronts = append(fronts, next)
		f = next
	}
	delta := make([]float64, n*s)
	fold := func(i int, cols []sparse.Index, vals []float64) {
		for p, b := range cols {
			delta[i*s+int(b)] += vals[p] * sigma[i*s+int(b)]
		}
	}
	for d := len(fronts) - 1; d >= 1; d-- {
		w := fronts[d].Clone()
		for i := range n {
			for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
				b := int(w.ColIdx[p])
				w.Val[p] = (1 + delta[i*s+b]) / sigma[i*s+b]
			}
		}
		if fused {
			if err := core.MaskedSpGEMMStream[float64](sr, fronts[d-1], a, w, cfg, fold); err != nil {
				return nil, err
			}
			continue
		}
		tm, err := core.MaskedSpGEMM[float64](sr, fronts[d-1], a, w, cfg)
		if err != nil {
			return nil, err
		}
		for i := range n {
			cols, vals := tm.Row(i)
			fold(i, cols, vals)
		}
	}
	for b, src := range sources {
		for v := range n {
			if v != src {
				bc[v] += delta[v*s+b]
			}
		}
	}
	return bc, nil
}

// withIsolated returns a with one more vertex, n, that has no edges.
func withIsolated(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	c := a.Clone()
	c.RowPtr = append(c.RowPtr, a.NNZ())
	c.Rows, c.Cols = a.Rows+1, a.Cols+1
	return c
}

// TestBCBatchMatchesWholeGraph pins the compact-front formulation to the
// whole-graph one with ==: on symmetric inputs every product sees the
// same rows, the same Eq. 2 work and the same ⊕ order, so the scores are
// bit-identical — across graph families, source batches (duplicates, an
// edgeless source, s = 1 and s = 64), both sides of the tile crossover,
// with and without an engine, staged and fused.
func TestBCBatchMatchesWholeGraph(t *testing.T) {
	road := graphgen.RoadNetwork(12, 15, 0.95, 9)
	rmat := graphgen.RMAT(7, 6, 0.57, 0.19, 0.19, 77)
	er := withIsolated(graphgen.ErdosRenyi(130, 300, 4))
	wide := make([]int, 64)
	for b := range wide {
		wide[b] = (b * 37) % 120
	}
	for _, g := range []struct {
		name string
		a    *sparse.CSR[float64]
	}{{"road", road}, {"rmat", rmat}, {"er", er}} {
		for _, sources := range [][]int{{3, 40, 77, 120}, {5, 5, 9, 5}, {g.a.Rows - 1, 0}, {17}, wide} {
			if g.name == "er" && sources[0] == g.a.Rows-1 && g.a.RowNNZ(g.a.Rows-1) != 0 {
				t.Fatal("the er fixture's last vertex has edges")
			}
			for _, crossover := range []int64{productionCrossover, 0} {
				for _, withEngine := range []bool{false, true} {
					for _, fused := range []bool{false, true} {
						name := fmt.Sprintf("%s/s=%d/src0=%d/crossover=%d/engine=%v/fused=%v",
							g.name, len(sources), sources[0], crossover, withEngine, fused)
						old := core.SetTileCrossoverForTest(crossover)
						cfg := testCfg()
						if withEngine {
							cfg.Engine = exec.New(exec.Config{})
						}
						want, err := bcBatchWhole(g.a, sources, cfg, fused)
						if err != nil {
							t.Fatal(name, err)
						}
						got, err := bcBatch(g.a, sources, cfg, fused)
						core.SetTileCrossoverForTest(old)
						if err != nil {
							t.Fatal(name, err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s: compact fronts differ from the whole-graph products", name)
						}
					}
				}
			}
		}
	}
}

// directed keeps one direction of most of a symmetric graph's edges and
// both of some, so shortest paths differ from their reverses and the
// graph has cycles.
func directed(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](a.Rows, a.Cols, a.NNZ())
	for i := range a.Rows {
		for _, j := range a.RowCols(i) {
			if (int(j) < i) == ((i*7+int(j)*3)%5 == 0) || (i+int(j))%4 == 0 {
				coo.Add(sparse.Index(i), j, 1)
			}
		}
	}
	return coo.ToCSR()
}

// TestBCBatchDirected checks the batch on directed graphs, where paths
// follow A's rows forward and the reverse graph gives other scores:
// against brute-force Brandes and the vector formulation, within 1e-9,
// staged and fused.
func TestBCBatchDirected(t *testing.T) {
	sources := []int{0, 3, 5, 9}
	var graphs []*sparse.CSR[float64]
	graphs = append(graphs, sparse.Triu(graphgen.ErdosRenyi(40, 160, 3)))
	for seed := uint64(1); seed <= 14; seed++ {
		graphs = append(graphs, directed(graphgen.ErdosRenyi(40, 160, seed)))
		graphs = append(graphs, directed(graphgen.RMAT(6, 4, 0.57, 0.19, 0.19, seed)))
	}
	for gi, a := range graphs {
		want := bruteBC(a, sources)
		vector, err := BetweennessCentrality(a, sources, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, fused := range []bool{false, true} {
			got, err := bcBatch(a, sources, testCfg(), fused)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if d := got[v] - want[v]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("graph %d fused=%v: bc[%d] = %v, Brandes says %v", gi, fused, v, got[v], want[v])
				}
				if d := got[v] - vector[v]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("graph %d fused=%v: bc[%d] = %v, the vector BC says %v", gi, fused, v, got[v], vector[v])
				}
			}
		}
	}
}
