package spgemm

import (
	"slices"
	"testing"

	"maskedspgemm/internal/core"
)

// facadeOutcome is what one pass over the facade's multiply-built entry
// points returns, plus the stats/v1 totals it recorded.
type facadeOutcome struct {
	mxm, comp, chain, reused *Matrix
	truss                    *Matrix
	triangles                int64
	bc, bcFused              []float64
	totals                   CounterSet
}

func facadePass(t *testing.T, a *Matrix, opts Options) facadeOutcome {
	t.Helper()
	rec := NewStatsRecorder()
	opts.Stats = rec
	var o facadeOutcome
	var err error
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	o.mxm, err = MxM(a, a, a, opts)
	check(err)
	o.comp, err = MxMComplement(a, a, a, opts)
	check(err)
	o.chain, err = MxMChain(a, a, a, a, a, opts)
	check(err)
	mu, err := NewMultiplier(a, a, a, opts)
	check(err)
	o.reused, err = mu.Multiply()
	check(err)
	o.truss, _, err = KTruss(a, 3, opts)
	check(err)
	o.triangles, err = TriangleCount(a, opts)
	check(err)
	sources := []int{0, 5, 19, 44}
	o.bc, err = BetweennessCentralityBatch(a, sources, opts)
	check(err)
	opts.Fuse = true
	o.bcFused, err = BetweennessCentralityBatch(a, sources, opts)
	check(err)
	o.totals = rec.Stats().Totals
	return o
}

// TestFacadeSmallEqualsTiled is the small ≡ tiled law at the public
// surface: every multiply-built entry point returns the same result on
// either side of the tile crossover, with and without an Engine, at one
// and three requested workers, and the stats/v1 totals agree on
// everything but the tile count. The one-tile side never touches the
// plan cache; the tiled side does.
func TestFacadeSmallEqualsTiled(t *testing.T) {
	a := RandomGraph("er", 80, 5)
	for _, workers := range []int{1, 3} {
		for _, withEngine := range []bool{false, true} {
			side := func(crossover int64) (facadeOutcome, PoolStats) {
				old := core.SetTileCrossoverForTest(crossover)
				defer core.SetTileCrossoverForTest(old)
				opts := Defaults()
				opts.Workers = workers
				opts.Tiles = 8
				if withEngine {
					opts.Engine = NewEngine(EngineConfig{})
				}
				return facadePass(t, a, opts), opts.Engine.Stats()
			}
			small, smallPool := side(productionCrossover)
			tiled, tiledPool := side(0)
			for _, pair := range []struct {
				name        string
				small, tile *Matrix
			}{
				{"MxM", small.mxm, tiled.mxm},
				{"MxMComplement", small.comp, tiled.comp},
				{"MxMChain", small.chain, tiled.chain},
				{"Multiplier", small.reused, tiled.reused},
				{"KTruss", small.truss, tiled.truss},
			} {
				if !pair.small.Equal(pair.tile) {
					t.Errorf("workers=%d engine=%v: %s differs across the crossover", workers, withEngine, pair.name)
				}
			}
			if small.triangles != tiled.triangles {
				t.Errorf("workers=%d engine=%v: triangles %d / %d", workers, withEngine, small.triangles, tiled.triangles)
			}
			if !slices.Equal(small.bc, tiled.bc) || !slices.Equal(small.bcFused, tiled.bcFused) {
				t.Errorf("workers=%d engine=%v: BC scores differ across the crossover", workers, withEngine)
			}
			if small.totals.Tiles >= tiled.totals.Tiles {
				t.Errorf("workers=%d engine=%v: %d tiles one-tile side, %d tiled side",
					workers, withEngine, small.totals.Tiles, tiled.totals.Tiles)
			}
			small.totals.Tiles, tiled.totals.Tiles = 0, 0
			if small.totals != tiled.totals {
				t.Errorf("workers=%d engine=%v: stats differ: one-tile %+v, tiled %+v",
					workers, withEngine, small.totals, tiled.totals)
			}
			if withEngine {
				if smallPool.PlanHits+smallPool.PlanMisses != 0 {
					t.Errorf("workers=%d: one-tile side touched the plan cache: %+v", workers, smallPool)
				}
				if tiledPool.PlanMisses == 0 {
					t.Errorf("workers=%d: tiled side never planned: %+v", workers, tiledPool)
				}
			}
		}
	}
}

// oneTileAllocBudget is the allowed allocation count of one warm
// one-tile MxM on an Engine: the freshly assembled result (CSR header,
// row pointers, column indices, values, public wrapper), the one-tile
// plan, the tile closure and the scheduler's run state. It is what a
// warm *tiled* call cost before the planner could answer "one tile" —
// the untiled path is there to shed fixed cost, so it may not add any.
const oneTileAllocBudget = 8

func TestOneTileMxMWarmAllocs(t *testing.T) {
	atProductionCrossover(t)
	a := RandomGraph("er", 80, 5)
	opts := Defaults()
	opts.Engine = NewEngine(EngineConfig{})
	for _, call := range []struct {
		name string
		run  func() (*Matrix, error)
	}{
		{"MxM", func() (*Matrix, error) { return MxM(a, a, a, opts) }},
		{"MxMComplement", func() (*Matrix, error) { return MxMComplement(a, a, a, opts) }},
	} {
		// Warm the pool's size class.
		if _, err := call.run(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := call.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > oneTileAllocBudget {
			t.Errorf("warm one-tile %s allocates %.1f times per call, budget %d",
				call.name, allocs, oneTileAllocBudget)
		}
	}
	if st := opts.Engine.Stats(); st.PlanHits+st.PlanMisses != 0 {
		t.Errorf("one-tile calls touched the plan cache: %+v", st)
	}
}
