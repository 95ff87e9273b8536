package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// crossoverForms are the formulations the small ≡ tiled law covers: the
// fault matrix's four plus the fused chain and the prepared product, on
// a square problem so one (m, a) pair serves all of them.
var crossoverForms = append(chaosForms[:len(chaosForms):len(chaosForms)], []struct {
	name string
	run  func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error)
}{
	{"chain", func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		return FusedMaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, a, m, a, cfg)
	}},
	{"prepared", func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		multiply, _, err := prepared(m, a, a, cfg)
		if err != nil {
			return nil, err
		}
		return multiply()
	}},
}...)

// TestSmallEqualsTiled is the law that makes the crossover a pure cost
// decision: on either side of it every formulation returns the same
// matrix bit for bit and records the same stats/v1 rows, FLOPs and
// gathered entries, for every configuration of the grid, with and
// without an Engine, at one and three requested workers. The tile
// counter is the one reading that differs, and it is what proves each
// run took the side it was meant to.
func TestSmallEqualsTiled(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	a := randMatrix(70, 70, 0.08, r)
	m := randMatrix(70, 70, 0.12, r)
	// A full mask row, so the complement dead-row rule is on both sides.
	full := sparse.NewCSR[float64](70, 70, 0)
	for i := 0; i < 70; i++ {
		cols, vals := m.Row(i)
		if i == 11 {
			cols, vals = make([]sparse.Index, 70), make([]float64, 70)
			for j := range cols {
				cols[j], vals[j] = sparse.Index(j), 1
			}
		}
		full.AppendRow(i, cols, vals)
	}
	m = full
	eng := exec.New(exec.Config{})

	for _, form := range crossoverForms {
		for _, base := range allConfigs() {
			for _, workers := range []int{1, 3} {
				for _, withEngine := range []bool{false, true} {
					cfg := base
					cfg.Workers = workers
					if withEngine {
						cfg.Engine = eng
					}
					name := fmt.Sprintf("%s/%v/engine=%v", form.name, cfg, withEngine)
					side := func(crossover int64) (*sparse.CSR[float64], obs.CounterSet) {
						defer SetTileCrossoverForTest(SetTileCrossoverForTest(crossover))
						cfg := cfg
						cfg.Recorder = obs.NewRecorder()
						c, err := form.run(m, a, cfg)
						if err != nil {
							t.Fatalf("%s at crossover %d: %v", name, crossover, err)
						}
						return c, cfg.Recorder.Stats().Totals
					}
					small, smallStats := side(productionCrossover)
					tiled, tiledStats := side(0)
					if !sparse.Equal(small, tiled) {
						t.Fatalf("%s: one-tile result differs from the tiled one", name)
					}
					if smallStats.Tiles != 1 || tiledStats.Tiles <= 1 {
						t.Fatalf("%s: tiles = %d one-tile / %d tiled, want 1 / several",
							name, smallStats.Tiles, tiledStats.Tiles)
					}
					smallStats.Tiles, tiledStats.Tiles = 0, 0
					if smallStats != tiledStats {
						t.Fatalf("%s: stats differ: one-tile %+v, tiled %+v", name, smallStats, tiledStats)
					}
				}
			}
		}
	}
}

// TestSmallEqualsTiledCounters is the same law for the instrumented
// entry point: the accumulator traffic of a run does not depend on how
// its rows were cut into tiles.
func TestSmallEqualsTiledCounters(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	a := randMatrix(70, 70, 0.08, r)
	m := randMatrix(70, 70, 0.12, r)
	sr := semiring.PlusTimes[float64]{}
	for _, base := range allConfigs() {
		for _, workers := range []int{1, 3} {
			cfg := base
			cfg.Workers = workers
			side := func(crossover int64) (*sparse.CSR[float64], Counters) {
				defer SetTileCrossoverForTest(SetTileCrossoverForTest(crossover))
				c, counts, err := MaskedSpGEMMInstrumented[float64](sr, m, a, a, cfg)
				if err != nil {
					t.Fatalf("%v at crossover %d: %v", cfg, crossover, err)
				}
				return c, counts
			}
			small, smallCounts := side(productionCrossover)
			tiled, tiledCounts := side(0)
			if !sparse.Equal(small, tiled) {
				t.Fatalf("%v: one-tile result differs from the tiled one", cfg)
			}
			if smallCounts != tiledCounts {
				t.Fatalf("%v: counters differ: one-tile %+v, tiled %+v", cfg, smallCounts, tiledCounts)
			}
		}
	}
}

// TestTileCrossoverBoundary pins the decision's edge: a product of
// untiled work W is one tile at crossover W+1 and tiled at crossover W.
func TestTileCrossoverBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	a := randMatrix(60, 50, 0.1, r)
	b := randMatrix(50, 40, 0.1, r)
	m := randMatrix(60, 40, 0.2, r)

	w := UntiledWork(m, a, b, math.MaxInt64)
	var flops int64
	for _, k := range a.ColIdx {
		flops += b.RowNNZ(int(k))
	}
	if want := int64(a.Rows) + m.NNZ() + a.NNZ() + flops; w != want {
		t.Fatalf("UntiledWork = %d, want rows + nnz(M) + nnz(A) + Eq. 2 = %d", w, want)
	}

	cfg := DefaultConfig()
	cfg.Tiles = 8
	cfg.Workers = 2
	tilesAt := func(crossover int64) int {
		setCrossover(t, crossover)
		tiles, err := Prepare(m, a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tiles
	}
	if got := tilesAt(w + 1); got != 1 {
		t.Errorf("W = crossover − 1: %d tiles, want 1", got)
	}
	if got := tilesAt(w); got != 8 {
		t.Errorf("W = crossover: %d tiles, want 8", got)
	}
}

// TestTileCrossoverChainBound checks the chain's share of the decision:
// a chain whose first product alone is under the crossover is still
// tiled when M standing in for the intermediate puts the second product
// over it.
func TestTileCrossoverChainBound(t *testing.T) {
	m1, a, b, m2, c := chainOperands(29)
	w1 := UntiledWork(m1, a, b, math.MaxInt64)
	w2 := UntiledWork(m2, m1, c, math.MaxInt64)
	for _, tc := range []struct {
		crossover int64
		want      bool
	}{
		{w1 + w2 + 1, true},
		{w1 + w2, false},
		{w1 + 1, false},
	} {
		setCrossover(t, tc.crossover)
		if got := belowTileCrossover(m1, a, b, m2, c); got != tc.want {
			t.Errorf("crossover %d (stage works %d + %d): below = %v, want %v",
				tc.crossover, w1, w2, got, tc.want)
		}
	}
	setCrossover(t, w1+1)
	if !belowTileCrossover(m1, a, b, nil, nil) {
		t.Errorf("the first product alone (W = %d) must sit under crossover %d", w1, w1+1)
	}
}

// TestUntiledWorkStopsEarly bounds the decision's own cost by
// construction: every A entry selects the same B row of rowLen entries,
// so the running total reaches the limit after a known number of
// lookups, and the value returned — the total at the moment the scan
// stopped — shows it looked no further. A scan to the end would return
// the full W, orders of magnitude more.
func TestUntiledWorkStopsEarly(t *testing.T) {
	const rows, perRow, rowLen = 200, 40, 50
	a := sparse.NewCSR[float64](rows, perRow, 0)
	cols, vals := make([]sparse.Index, perRow), make([]float64, perRow)
	for j := range cols {
		cols[j], vals[j] = sparse.Index(j), 1
	}
	for i := 0; i < rows; i++ {
		a.AppendRow(i, cols, vals)
	}
	b := sparse.NewCSR[float64](perRow, rowLen, 0)
	bCols, bVals := make([]sparse.Index, rowLen), make([]float64, rowLen)
	for j := range bCols {
		bCols[j], bVals[j] = sparse.Index(j), 1
	}
	for k := 0; k < perRow; k++ {
		b.AppendRow(k, bCols, bVals)
	}
	m := sparse.NewCSR[float64](rows, rowLen, 0)

	header := int64(rows) + a.NNZ()
	full := header + a.NNZ()*rowLen
	if got := UntiledWork(m, a, b, math.MaxInt64); got != full {
		t.Fatalf("full W = %d, want %d", got, full)
	}
	// O(1) reject: the header terms alone reach the limit.
	if got := UntiledWork(m, a, b, header); got != header {
		t.Errorf("limit = header: returned %d, want the header %d untouched by any B lookup", got, header)
	}
	// Early exit: at most ⌈(limit − header) / rowLen⌉ lookups.
	limit := header + 10*rowLen - 7
	got := UntiledWork(m, a, b, limit)
	if got < limit || got >= limit+rowLen {
		t.Errorf("limit %d: returned %d, want the first running total ≥ limit (< %d): the scan overran",
			limit, got, limit+rowLen)
	}
	if allocs := testing.AllocsPerRun(10, func() { UntiledWork(m, a, b, limit) }); allocs != 0 {
		t.Errorf("the decision allocates %.0f times per call, want 0", allocs)
	}
}
