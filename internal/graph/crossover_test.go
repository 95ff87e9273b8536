package graph

import (
	"slices"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sparse"
)

// TestAlgorithmsSmallEqualTiled runs the multiply-built algorithms on
// both sides of the tile crossover — every product one tile on the
// caller's goroutine at the shipped value, every product tiled at 0 —
// with and without an Engine. Each multiply is bit-identical across the
// two, so the algorithms' outputs must be too: BC scores compare with
// ==, not a tolerance. The one-tile side must also leave the plan cache
// untouched, which is what shows it was the one-tile side.
func TestAlgorithmsSmallEqualTiled(t *testing.T) {
	a := graphgen.RoadNetwork(12, 15, 0.95, 9)
	sources := []int{3, 40, 77, 120}
	type outcome struct {
		bc, bcFused    []float64
		truss, trussFu *sparse.CSR[float64]
		triangles      int64
	}
	run := func(crossover int64, eng *exec.Engine) outcome {
		old := core.SetTileCrossoverForTest(crossover)
		defer core.SetTileCrossoverForTest(old)
		cfg := testCfg()
		cfg.Engine = eng
		var o outcome
		var err error
		if o.bc, err = BetweennessCentralityBatch(a, sources, cfg); err != nil {
			t.Fatal(err)
		}
		if o.bcFused, err = BetweennessCentralityBatchFused(a, sources, cfg); err != nil {
			t.Fatal(err)
		}
		kt, err := KTruss(a, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ktf, err := KTrussFused(a, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.truss, o.trussFu = kt.Truss, ktf.Truss
		if o.triangles, err = TriangleCount(a, SandiaLL, cfg); err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, withEngine := range []bool{false, true} {
		var smallEng, tiledEng *exec.Engine
		if withEngine {
			smallEng, tiledEng = exec.New(exec.Config{}), exec.New(exec.Config{})
		}
		small := run(productionCrossover, smallEng)
		tiled := run(0, tiledEng)
		if !slices.Equal(small.bc, tiled.bc) || !slices.Equal(small.bcFused, tiled.bcFused) {
			t.Errorf("engine=%v: BC scores differ across the crossover", withEngine)
		}
		if !slices.Equal(small.bc, small.bcFused) {
			t.Errorf("engine=%v: one-tile staged and fused BC differ", withEngine)
		}
		if !sparse.Equal(small.truss, tiled.truss) || !sparse.Equal(small.trussFu, tiled.trussFu) {
			t.Errorf("engine=%v: k-truss differs across the crossover", withEngine)
		}
		if small.triangles != tiled.triangles {
			t.Errorf("engine=%v: triangles %d one-tile, %d tiled", withEngine, small.triangles, tiled.triangles)
		}
		want := bruteBC(a, sources)
		for v := range want {
			if diff := small.bc[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("engine=%v: one-tile bc[%d] = %v, Brandes says %v", withEngine, v, small.bc[v], want[v])
			}
		}
		if withEngine {
			if st := smallEng.Stats(); st.PlanHits+st.PlanMisses != 0 {
				t.Errorf("one-tile side touched the plan cache: %+v", st)
			}
			if st := tiledEng.Stats(); st.PlanMisses == 0 {
				t.Errorf("tiled side never planned: %+v", st)
			}
		}
	}
}
