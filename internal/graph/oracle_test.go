package graph

import (
	"fmt"
	"math"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// oracleConfigs are the configurations the oracle tests run under:
// workers 1 and 3, every product one tile (the shipped crossover) or
// tiled (crossover 0), with and without an engine. Each runs body with
// its name and config, the crossover set for the duration; the crossover
// in force before is restored on return, a failed body's included.
func oracleConfigs(body func(name string, cfg core.Config)) {
	defer core.SetTileCrossoverForTest(core.TileCrossover())
	for _, workers := range []int{1, 3} {
		for _, crossover := range []int64{productionCrossover, 0} {
			for _, withEngine := range []bool{false, true} {
				cfg := testCfg()
				cfg.Workers = workers
				if withEngine {
					cfg.Engine = exec.New(exec.Config{})
				}
				core.SetTileCrossoverForTest(crossover)
				body(fmt.Sprintf("workers=%d/crossover=%d/engine=%v", workers, crossover, withEngine), cfg)
			}
		}
	}
}

// checkTruss fails unless the truss tr stores exactly the edges of the
// definition's surviving neighbour sets want (bruteTruss).
func checkTruss(t *testing.T, name string, tr *sparse.CSR[float64], want []map[int]bool) {
	t.Helper()
	edges := 0
	for _, nb := range want {
		edges += len(nb)
	}
	if got := tr.NNZ(); got != int64(edges) {
		t.Fatalf("%s: truss stores %d entries, definition keeps %d", name, got, edges)
	}
	for i := 0; i < tr.Rows; i++ {
		for _, j := range tr.RowCols(i) {
			if !want[i][int(j)] {
				t.Fatalf("%s: truss keeps edge (%d,%d) the definition drops", name, i, j)
			}
		}
	}
}

// TestKTrussMatchesBruteAcrossConfigs holds KTruss to the definition
// (bruteTruss) on three random graphs at k = 3, 4, 5 under every oracle
// configuration. A config with an engine runs twice, so the second call
// reads warm plans and workspaces.
func TestKTrussMatchesBruteAcrossConfigs(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		a := smallGraph(seed)
		for _, k := range []int{3, 4, 5} {
			t.Run(fmt.Sprintf("seed=%d/k=%d", seed, k), func(t *testing.T) {
				want := bruteTruss(a, k)
				oracleConfigs(func(name string, cfg core.Config) {
					for range passes(cfg) {
						res, err := KTruss(a, nil, k, cfg)
						if err != nil {
							t.Fatal(name, err)
						}
						checkTruss(t, name, res.Truss, want)
						if res.Edges != res.Truss.NNZ()/2 {
							t.Fatalf("%s: Edges = %d for %d entries", name, res.Edges, res.Truss.NNZ())
						}
					}
				})
			})
		}
	}
}

// TestTriangleCountMatchesOraclesAcrossConfigs holds the one count,
// L ⊙ (L×L) on the lower view, to two answers that share none of its
// code path: the brute-force triple walk (bruteTriangles) and the sum of
// the assembled C = A ⊙ (A×A) over 6, each triangle counted once per
// ordered vertex triple. It runs on skewed, road and uniform graphs
// under every oracle configuration, never and always co-iterating, with
// a's symmetry checked in the call and remembered across calls (which
// lets the view's verdict route rows to the merge kernel). Hybrid
// rejects κ = 0, so never co-iterating is its κ → 0 limit, MaskLoad.
func TestTriangleCountMatchesOraclesAcrossConfigs(t *testing.T) {
	graphs := []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"rmat", graphgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)},
		{"road", graphgen.RoadNetwork(20, 25, 0.9, 3)},
		{"er", graphgen.ErdosRenyi(400, 3000, 3)},
	}
	iterations := []struct {
		name string
		it   core.IterationSpace
		k    float64
	}{
		{"kappa=0", core.MaskLoad, 1},
		{"kappa=inf", core.Hybrid, math.Inf(1)},
	}
	sr := semiring.PlusPair[float64]{}
	for _, g := range graphs {
		want := bruteTriangles(g.a)
		t.Run(g.name, func(t *testing.T) {
			oracleConfigs(func(name string, cfg core.Config) {
				for _, iter := range iterations {
					cfg.Iteration, cfg.Kappa = iter.it, iter.k
					c, err := core.MaskedSpGEMM[float64](sr, g.a, g.a, g.a, cfg)
					if err != nil {
						t.Fatal(name, err)
					}
					if full := sparse.SumValues(c) / 6; full != float64(want) {
						t.Fatalf("%s %s: A ⊙ (A×A) sums to %v/6 triangles, brute force %d", name, iter.name, full, want)
					}
					var learned Symmetry
					for range passes(cfg) {
						for memo, sym := range map[string]*Symmetry{"nil": nil, "learned": &learned} {
							if got, err := TriangleCount(g.a, sym, cfg); err != nil || got != want {
								t.Errorf("%s %s sym=%s: %d (%v), want %d", name, iter.name, memo, got, err, want)
							}
						}
					}
				}
			})
		})
	}
}

// passes is how many times an oracle test calls under cfg: twice with an
// engine, so the second call is warm, once without.
func passes(cfg core.Config) int {
	if cfg.Engine != nil {
		return 2
	}
	return 1
}
