package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// crossoverForms are the formulations the small ≡ tiled law covers: the
// fault matrix's four plus the prepared product, on a square problem so
// one (m, a) pair serves all of them.
var crossoverForms = append(chaosForms[:len(chaosForms):len(chaosForms)], []squareForm{
	{"prepared", func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		multiply, _, err := prepared(m, a, a, cfg)
		if err != nil {
			return nil, err
		}
		return multiply()
	}},
}...)

// hyperFixture is one product of the sparse × tall-and-skinny regime.
type hyperFixture struct {
	name    string
	m, a, b *sparse.CSR[float64]
}

// hypersparseFixtures are products whose one-tile run walks a handful of
// live rows out of ≈ 5 000: a road lattice A times a frontier B of one to
// four live rows (one per column, a batch of four sources), under
// a mask that mixes full, partial and empty rows
// around the frontier and a few rows no frontier reaches. The last
// fixture also empties some of A's rows next to the frontier, so the
// mask has rows whose left row is empty.
func hypersparseFixtures() []hyperFixture {
	lattice := graphgen.RoadNetwork(50, 100, 0.95, 7)
	n := lattice.Rows
	frontier := func(rows ...int) *sparse.CSR[float64] {
		coo := sparse.NewCOO[float64](n, 4, 0)
		for b, r := range rows {
			coo.Add(sparse.Index(r), sparse.Index(b), 1)
		}
		return coo.ToCSR()
	}
	mask := func(f *sparse.CSR[float64]) *sparse.CSR[float64] {
		coo := sparse.NewCOO[float64](n, 4, 0)
		for r := 0; r < n; r++ {
			for _, b := range f.RowCols(r) {
				for _, u := range lattice.RowCols(r) {
					switch u % 3 {
					case 0: // full
						for j := sparse.Index(0); j < 4; j++ {
							coo.Add(u, j, 1)
						}
					case 1:
						coo.Add(u, b, 1)
					} // case 2: an empty mask row
				}
			}
		}
		for _, r := range []int{0, 1, n / 3, n - 1} {
			coo.Add(sparse.Index(r), sparse.Index(r%4), 1)
		}
		return coo.ToCSR()
	}
	// holes empties every other lattice row that neighbours f's rows.
	holes := func(f *sparse.CSR[float64]) *sparse.CSR[float64] {
		drop := map[int]bool{}
		for r := 0; r < n; r++ {
			if f.RowNNZ(r) > 0 {
				for k, u := range lattice.RowCols(r) {
					drop[int(u)] = drop[int(u)] || k%2 == 0
				}
			}
		}
		out := sparse.NewCSR[float64](n, n, 0)
		for i := 0; i < n; i++ {
			cols, vals := lattice.Row(i)
			if drop[i] {
				cols, vals = nil, nil
			}
			out.AppendRow(i, cols, vals)
		}
		return out
	}
	one := frontier(n / 2)
	four := frontier(10, n/3, n/3+1, n-5)
	return []hyperFixture{
		{"frontier-1", mask(one), lattice, one},
		{"frontier-4", mask(four), lattice, four},
		{"frontier-4/empty-A-rows", mask(four), holes(four), four},
	}
}

// smallEqualsTiled is the law that makes the crossover a pure cost
// decision: on either side of it run returns the same matrix bit for
// bit and records the same stats/v6 rows, FLOPs, picks and gathered
// entries, for every configuration of the grid, with and without an
// Engine, at one and three requested workers. The tile counter is the
// one reading that differs, and it is what proves each run took the
// side it was meant to.
func smallEqualsTiled(t *testing.T, name string, run func(cfg Config) (*sparse.CSR[float64], error)) {
	t.Helper()
	eng := exec.New(exec.Config{})
	for _, base := range allConfigs() {
		for _, workers := range []int{1, 3} {
			for _, withEngine := range []bool{false, true} {
				cfg := base
				cfg.Workers = workers
				if withEngine {
					cfg.Engine = eng
				}
				name := fmt.Sprintf("%s/%v/engine=%v", name, cfg, withEngine)
				side := func(crossover int64) (*sparse.CSR[float64], obs.CounterSet) {
					defer SetTileCrossoverForTest(SetTileCrossoverForTest(crossover))
					cfg := cfg
					cfg.Recorder = obs.NewRecorder()
					c, err := run(cfg)
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

// TestSmallEqualsTiled holds every formulation to the small ≡ tiled law,
// on a random square product with a full mask row and on the hypersparse fixtures, whose
// one-tile runs walk only their live rows.
func TestSmallEqualsTiled(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	a := randMatrix(70, 70, 0.08, r)
	m := randMatrix(70, 70, 0.12, r)
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
	for _, form := range crossoverForms {
		smallEqualsTiled(t, form.name, func(cfg Config) (*sparse.CSR[float64], error) {
			return form.run(m, a, cfg)
		})
	}
	for _, fx := range hypersparseFixtures() {
		for _, form := range productForms {
			smallEqualsTiled(t, fx.name+"/"+form.name, func(cfg Config) (*sparse.CSR[float64], error) {
				return form.run(fx.m, fx.a, fx.b, cfg)
			})
		}
	}
}

// TestSmallEqualsTiledCounters is the same law for the instrumented
// entry point: the accumulator traffic of a run — rows begun, mask
// loads, updates, rejections, gathered entries — does not depend on how
// its rows were cut into tiles, nor on whether its one tile walked only
// the live rows.
func TestSmallEqualsTiledCounters(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	a := randMatrix(70, 70, 0.08, r)
	m := randMatrix(70, 70, 0.12, r)
	fixtures := append([]hyperFixture{{"random", m, a, a}}, hypersparseFixtures()...)
	sr := semiring.PlusTimes[float64]{}
	for _, fx := range fixtures {
		for _, base := range allConfigs() {
			for _, workers := range []int{1, 3} {
				cfg := base
				cfg.Workers = workers
				side := func(crossover int64) (*sparse.CSR[float64], Counters) {
					defer SetTileCrossoverForTest(SetTileCrossoverForTest(crossover))
					c, counts, err := MaskedSpGEMMInstrumented[float64](sr, fx.m, fx.a, fx.b, cfg)
					if err != nil {
						t.Fatalf("%s/%v at crossover %d: %v", fx.name, cfg, crossover, err)
					}
					return c, counts
				}
				small, smallCounts := side(productionCrossover)
				tiled, tiledCounts := side(0)
				if !sparse.Equal(small, tiled) {
					t.Fatalf("%s/%v: one-tile result differs from the tiled one", fx.name, cfg)
				}
				if smallCounts != tiledCounts {
					t.Fatalf("%s/%v: counters differ: one-tile %+v, tiled %+v", fx.name, cfg, smallCounts, tiledCounts)
				}
			}
		}
	}
}

// rowCounter counts the rows a row kernel begins on its accumulator.
type rowCounter struct {
	accum.Accumulator[float64]
	rows int64
}

func (c *rowCounter) BeginRow() {
	c.rows++
	c.Accumulator.BeginRow()
}

// TestOneTileWalksLiveRows pins the one-tile loop's cost to the rows
// that can produce output, counted two ways: the RowKernel seam, crossed
// once per row the loop visits, and BeginRow, called once per row a
// masked kernel computes. A run visits and begins exactly the rows with
// a non-empty A row and a non-empty mask row (any non-empty A row under
// Vanilla). A loop over every row, or a kernel that begins rows with an
// empty left row, fails it.
func TestOneTileWalksLiveRows(t *testing.T) {
	atProductionCrossover(t)
	sr := semiring.PlusTimes[float64]{}
	for _, fx := range hypersparseFixtures() {
		m, a, b := fx.m, fx.a, fx.b
		for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
			var want int64
			for i := 0; i < a.Rows; i++ {
				if a.RowNNZ(i) > 0 && (it == Vanilla || m.RowNNZ(i) > 0) {
					want++
				}
			}
			// Vanilla computes every non-empty A row by definition.
			if it != Vanilla && (want == 0 || want > int64(a.Rows)/50) {
				t.Fatalf("%s: %d live rows of %d, want a handful", fx.name, want, a.Rows)
			}
			var visits int64
			cfg := DefaultConfig()
			cfg.Iteration = it
			cfg.Resilience = &Resilience{Chaos: chaos.Func(func(p chaos.Point) chaos.Fault {
				if p == chaos.RowKernel {
					visits++
				}
				return chaos.Fault{}
			})}
			var counters []*rowCounter
			p := newProduct(sr, m, a, b, cfg)
			p.wrap = func(inner accum.Accumulator[float64]) accum.Accumulator[float64] {
				c := &rowCounter{Accumulator: inner}
				counters = append(counters, c)
				return c
			}
			if _, err := p.run(nil); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%v", fx.name, it)
			if visits != want {
				t.Errorf("%s: the tile loop visited %d rows, want the %d live ones", name, visits, want)
			}
			var begun int64
			for _, c := range counters {
				begun += c.rows
			}
			if begun != want {
				t.Errorf("%s: %d BeginRow calls, want one per live row (%d)", name, begun, want)
			}
		}
	}
}

// TestBoundedVerdictIsExact holds the planner's O(1) bound to the full
// scan: on random shapes — square, wide, and tall-and-skinny B of one to
// four columns — and at crossovers on both sides of each product's work,
// belowTileCrossover answers what the exact UntiledWork comparison
// answers, and workBound never undercuts the exact work. The bound must settle some cases on
// its own, or the test would not be exercising it.
func TestBoundedVerdictIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	settled := 0
	for trial := 0; trial < 300; trial++ {
		rows, inner := 1+r.Intn(120), 1+r.Intn(120)
		cols := 1 + r.Intn(4)
		if trial%3 == 0 {
			cols = 1 + r.Intn(150)
		}
		a := randMatrix(rows, inner, r.Float64()*0.2, r)
		b := randMatrix(inner, cols, r.Float64()*0.5, r)
		m := randMatrix(rows, cols, r.Float64()*0.5, r)
		w := UntiledWork(m, a, b, math.MaxInt64)
		if bound := workBound(m, a, b, math.MaxInt64); bound < w {
			t.Fatalf("trial %d: workBound %d < UntiledWork %d", trial, bound, w)
		}
		for _, crossover := range []int64{0, 1, w / 2, w, w + 1, 2 * w, w + int64(r.Intn(5000)), math.MaxInt64} {
			setCrossover(t, crossover)
			if got, want := belowTileCrossover(m, a, b), w < crossover; got != want {
				t.Fatalf("trial %d (%dx%d × %dx%d) at crossover %d: below = %v, exact scan says %v",
					trial, rows, inner, inner, cols, crossover, got, want)
			}
			if workBound(m, a, b, crossover) < crossover {
				settled++
			}
		}
	}
	if settled == 0 {
		t.Error("the bound never settled a verdict on its own")
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
