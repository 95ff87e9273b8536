package graph

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
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
						res, err := KTruss(a, k, cfg)
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

// TestBCBatchMatchesBruteAcrossConfigs holds the batched BC to Brandes'
// algorithm (bruteBC), within 1e-9, on two random graphs under every
// oracle configuration, an engine's second call warm.
func TestBCBatchMatchesBruteAcrossConfigs(t *testing.T) {
	sources := []int{0, 3, 11, 17}
	for _, seed := range []uint64{5, 21} {
		a := smallGraph(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := bruteBC(a, sources)
			oracleConfigs(func(name string, cfg core.Config) {
				for range passes(cfg) {
					got, err := BetweennessCentralityBatch(a, sources, cfg)
					if err != nil {
						t.Fatal(name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
					}
					for v := range want {
						if d := got[v] - want[v]; d > 1e-9 || d < -1e-9 {
							t.Fatalf("%s: bc[%d] = %v, Brandes says %v", name, v, got[v], want[v])
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
