package bench

import (
	"fmt"
	"io"
	"math"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The crossover sweep runs two families of products, each growing
// through core's constant. The sizes are absolute — the crossover is a
// statement about untiled work W, not about a corpus graph — so
// Options.Shift does not scale them.
//
// Family one is the regime the one-tile plan exists for: a road lattice
// crossoverWidth wide and crossoverHeights high (1 Ki to 128 Ki rows)
// times a BC-frontier-shaped B under a frontier-shaped mask — the
// backward-sweep product of batched BC, W ≈ 5 per row. Family two is
// the opposite corner: A ⊙ (A × A) on an Erdős–Rényi graph of mean
// degree crossoverDegree and crossoverVertices vertices, W ≈ 290 per
// row, where the kernel has real work per row and tiling pays early.
const (
	crossoverWidth  = 64
	crossoverDegree = 16
)

var (
	crossoverHeights  = []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	crossoverVertices = []int{64, 128, 256, 512, 1024, 2048}
)

const (
	// crossoverBatch is the number of frontier columns (the BC batch
	// width) and crossoverStride the spacing of frontier rows: one row
	// in crossoverStride holds a frontier entry.
	crossoverBatch  = 4
	crossoverStride = 16
	// crossoverCalls is the number of multiplies one timed repetition
	// makes, so a repetition is long enough for the clock at the small
	// end of the sweep.
	crossoverCalls = 16
)

// frontier builds the n × crossoverBatch matrix with one entry in every
// crossoverStride-th row starting at row first, columns cycling: the
// shape of one level of a batched BFS on a lattice.
func frontier(n, first int) *sparse.CSR[float64] {
	f := sparse.NewCSR[float64](n, crossoverBatch, int64(n/crossoverStride+1))
	for i := 0; i < n; i++ {
		if i%crossoverStride == first {
			f.AppendRow(i, []sparse.Index{sparse.Index(i / crossoverStride % crossoverBatch)}, []float64{1})
		} else {
			f.AppendRow(i, nil, nil)
		}
	}
	return f
}

// crossoverCase is one product M ⊙ (A × B) of the sweep.
type crossoverCase struct {
	graph   string
	m, a, b *sparse.CSR[float64]
}

func crossoverCases() []crossoverCase {
	var cases []crossoverCase
	for _, height := range crossoverHeights {
		a := graphgen.RoadNetwork(crossoverWidth, height, 0.95, 0x6A9)
		cases = append(cases, crossoverCase{
			graph: fmt.Sprintf("road-%dx%d", crossoverWidth, height),
			m:     frontier(a.Rows, 1), a: a, b: frontier(a.Rows, 0),
		})
	}
	for _, n := range crossoverVertices {
		a := graphgen.ErdosRenyi(n, n*crossoverDegree/2, 0xE2)
		cases = append(cases, crossoverCase{graph: fmt.Sprintf("er-%d", n), m: a, a: a, b: a})
	}
	return cases
}

// CrossoverBench regenerates the numbers behind core's tile crossover
// (docs/TUNING.md, "Not to tile"). It runs every product of the sweep
// twice: with the planner forced to "one tile" and forced to tile. Both
// sides run on one Engine of their own, so workspaces are pooled, and
// every call presents the mask under a fresh header, so the tiled
// side's plan key can only miss: the iterative caller's regime, in
// which each level or round multiplies new operands. Each row carries
// the product's untiled work W, both times per call, core's constant
// and the ledger model's break-even W for that shape.
func CrossoverBench(w io.Writer, o Options) error {
	constant := core.TileCrossover()
	workers := sched.Workers(o.Workers)
	cfg := tunedConfig(o.Workers)
	cfg.Context = o.Method.Context
	cfg.Engine = exec.New(exec.Config{})
	sr := semiring.PlusTimes[float64]{}
	costs := model.ReferenceTileCosts

	fmt.Fprintf(w, "Tile crossover: one-tile vs tiled, %d workers, %d tiles requested; µs per multiply\n",
		workers, cfg.Tiles)
	fmt.Fprintf(w, "core constant W = %d; ledger derivation %d (reference costs, %d calls per repetition)\n",
		constant, model.DerivedTileCrossover(), crossoverCalls)
	fmt.Fprintf(w, "%-14s %9s %10s %12s %12s %8s %12s %10s\n",
		"product", "rows", "W", "one-tile", "tiled", "tiled/1", "model W*", "planner")
	cases := crossoverCases()
	var constantRight, modelRight int
	for _, cs := range cases {
		n := cs.a.Rows
		work := core.UntiledWork(cs.m, cs.a, cs.b, math.MaxInt64)
		predicted := costs.TileCrossover(n, min(cfg.Tiles, n), workers)

		var perCall [2]float64
		for side, forced := range []struct {
			config    string
			crossover int64
		}{{"one-tile", math.MaxInt64}, {"tiled", 0}} {
			config := forced.config
			old := core.SetTileCrossoverForTest(forced.crossover)
			meas, err := o.time("crossover", cs.graph, config, func() (int64, error) {
				var sum int64
				for call := 0; call < crossoverCalls; call++ {
					fresh := *cs.m
					c, err := core.MaskedSpGEMM[float64](sr, &fresh, cs.a, cs.b, cfg)
					if err != nil {
						return 0, err
					}
					sum += c.NNZ()
				}
				return sum, nil
			})
			core.SetTileCrossoverForTest(old)
			if err != nil {
				return err
			}
			perCall[side] = meas.Millis * 1e3 / crossoverCalls
			o.Log.Annotate("crossover", cs.graph, config, map[string]float64{
				"rows":            float64(n),
				"untiled_work":    float64(work),
				"us_per_multiply": perCall[side],
				"constant":        float64(constant),
				// One worker never breaks even; JSON has no +Inf.
				"model_crossover": math.Min(predicted, math.MaxInt64),
			})
		}
		planner := "one tile"
		if work >= constant {
			planner = "tiles"
		}
		fmt.Fprintf(w, "%-14s %9d %10d %12.1f %12.1f %8.2f %12.0f %10s\n",
			cs.graph, n, work, perCall[0], perCall[1], perCall[1]/perCall[0], predicted, planner)
		tiledWon := perCall[1] < perCall[0]
		if tiledWon == (work >= constant) {
			constantRight++
		}
		if tiledWon == (float64(work) >= predicted) {
			modelRight++
		}
	}
	fmt.Fprintf(w, "measured winner agrees with the planner's constant on %d of %d products, with the per-shape model W* on %d\n",
		constantRight, len(cases), modelRight)
	return nil
}
