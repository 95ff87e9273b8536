package spgemm

import (
	"math"
	"runtime"
	"testing"

	"maskedspgemm/internal/core"
)

// facadeOutcome is what one pass over the facade's multiply-built entry
// points returns, plus the stats/v5 totals it recorded.
type facadeOutcome struct {
	mxm, truss *Matrix
	triangles  int64
	totals     CounterSet
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
	o.truss, _, err = KTruss(a, 3, opts)
	check(err)
	o.triangles, err = TriangleCount(a, opts)
	check(err)
	o.totals = rec.Stats().Totals
	return o
}

// TestFacadeSmallEqualsTiled is the small ≡ tiled law at the public
// surface: every multiply-built entry point returns the same result on
// either side of the tile crossover, with and without an Engine, at one
// and three requested workers, and the stats/v5 totals agree on
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
				{"KTruss", small.truss, tiled.truss},
			} {
				if !pair.small.Equal(pair.tile) {
					t.Errorf("workers=%d engine=%v: %s differs across the crossover", workers, withEngine, pair.name)
				}
			}
			if small.triangles != tiled.triangles {
				t.Errorf("workers=%d engine=%v: triangles %d / %d", workers, withEngine, small.triangles, tiled.triangles)
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
// row pointers, column indices, values, public wrapper) and the tile
// closure. The one-tile plan keeps its tile in the checked-out
// workspace and the one-worker scheduler keeps its state on the stack,
// so neither may allocate; the untiled path exists to shed fixed cost.
const oneTileAllocBudget = 6

// TestTriangleCountWarmAllocs pins the streamed triangle count: a warm
// count on an Engine folds each row of L ⊙ (L×L), read on a lower view
// of A, into one counter and never assembles C or builds L, so neither
// its allocation count nor its bytes may grow with the graph. One-tile it allocates less than the assembling
// MxM's oneTileAllocBudget; tiled it pays a fixed per-run cost for the
// scheduler, the same at both sizes.
func TestTriangleCountWarmAllocs(t *testing.T) {
	const maxBytes = 2048
	for _, plan := range []struct {
		name      string
		crossover int64
		maxAllocs float64
	}{
		{"one-tile", math.MaxInt64, 3},
		{"tiled", 0, math.Inf(1)},
	} {
		t.Run(plan.name, func(t *testing.T) {
			old := core.SetTileCrossoverForTest(plan.crossover)
			defer core.SetTileCrossoverForTest(old)
			var counts []float64
			for _, n := range []int{2000, 8000} {
				a := RandomGraph("rmat", n, 7)
				opts := Defaults()
				opts.Workers = 2
				opts.Engine = NewEngine(EngineConfig{})
				count := func() {
					if _, err := TriangleCount(a, opts); err != nil {
						t.Fatal(err)
					}
				}
				count() // warm the pool and, tiled, the plan cache
				// A worker's staging buffer grows once to the longest row it
				// gathers, and which worker first meets a hub row is up to
				// the scheduler: the steady state is the quietest of three
				// rounds.
				const runs = 5
				allocs, bytes := math.Inf(1), math.Inf(1)
				for range 3 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					round := testing.AllocsPerRun(runs, count)
					runtime.ReadMemStats(&after)
					// AllocsPerRun makes one extra warm-up call.
					allocs = min(allocs, round)
					bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/(runs+1))
				}
				if allocs > plan.maxAllocs {
					t.Errorf("n=%d: warm count allocates %.1f times per call, budget %v", n, allocs, plan.maxAllocs)
				}
				if bytes > maxBytes {
					t.Errorf("n=%d: warm count allocates %.0f B per call, budget %d B", n, bytes, maxBytes)
				}
				t.Logf("n=%d: %.1f allocs, %.0f B per warm call", n, allocs, bytes)
				counts = append(counts, allocs)
			}
			if counts[0] != counts[1] {
				t.Errorf("allocations per call grow with the graph: %v at n = 2000, 8000", counts)
			}
		})
	}
}

// recordedAllocBudget is how many more objects a warm recorded call may
// allocate than the same call unrecorded. The run's scope, its counter
// blocks and its scratch come back from the recorder at every start, and
// spans are start times the run holds, so recording a run allocates
// nothing of its own.
const recordedAllocBudget = 2

// TestRecordedWarmAllocs pins recordedAllocBudget for a warm MxM and a
// warm streamed triangle count on an Engine, one-tile (a 64-vertex road
// graph) and tiled (RMAT 2^11), at one and two workers.
func TestRecordedWarmAllocs(t *testing.T) {
	atProductionCrossover(t)
	calls := []struct {
		name string
		run  func(a *Matrix, opts Options) error
	}{
		{"MxM", func(a *Matrix, opts Options) error { _, err := MxM(a, a, a, opts); return err }},
		{"TriangleCount", func(a *Matrix, opts Options) error { _, err := TriangleCount(a, opts); return err }},
	}
	for _, g := range []struct {
		name  string
		a     *Matrix
		tiled bool
	}{
		{"one-tile", RandomGraph("road", 64, 3), false},
		{"tiled", RandomGraph("rmat", 1<<11, 3), true},
	} {
		for _, workers := range []int{1, 2} {
			for _, call := range calls {
				opts := Defaults()
				opts.Workers = workers
				opts.Engine = NewEngine(EngineConfig{})
				warm := func(opts Options) float64 {
					run := func() {
						if err := call.run(g.a, opts); err != nil {
							t.Fatal(err)
						}
					}
					run()
					// Which worker first meets a long row is up to the
					// scheduler: the steady state is the quietest of three
					// rounds.
					allocs := math.Inf(1)
					for range 3 {
						allocs = min(allocs, testing.AllocsPerRun(5, run))
					}
					return allocs
				}
				plain := warm(opts)
				opts.Stats = NewStatsRecorder()
				recorded := warm(opts)
				if st := opts.Stats.Stats(); st.Runs == 0 || (st.Totals.Tiles > st.Runs) != g.tiled {
					t.Fatalf("%s/%s: %d tiles over %d recorded runs", g.name, call.name, st.Totals.Tiles, st.Runs)
				}
				t.Logf("%s/workers=%d/%s: %.0f allocs unrecorded, %.0f recorded", g.name, workers, call.name, plain, recorded)
				if recorded > plain+recordedAllocBudget {
					t.Errorf("%s/workers=%d/%s: a warm recorded call allocates %.0f times, unrecorded %.0f, budget +%d",
						g.name, workers, call.name, recorded, plain, recordedAllocBudget)
				}
			}
		}
	}
}

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
