package graph

import (
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
// two, so the algorithms' outputs must be too. The one-tile side must also leave the plan cache
// untouched, which is what shows it was the one-tile side.
func TestAlgorithmsSmallEqualTiled(t *testing.T) {
	a := graphgen.RoadNetwork(12, 15, 0.95, 9)
	type outcome struct {
		truss     *sparse.CSR[float64]
		triangles int64
	}
	run := func(crossover int64, eng *exec.Engine) outcome {
		old := core.SetTileCrossoverForTest(crossover)
		defer core.SetTileCrossoverForTest(old)
		cfg := testCfg()
		cfg.Engine = eng
		var o outcome
		kt, err := KTruss(a, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.truss = kt.Truss
		if o.triangles, err = TriangleCount(a, nil, cfg); err != nil {
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
		if !sparse.Equal(small.truss, tiled.truss) {
			t.Errorf("engine=%v: k-truss differs across the crossover", withEngine)
		}
		if small.triangles != tiled.triangles {
			t.Errorf("engine=%v: triangles %d one-tile, %d tiled", withEngine, small.triangles, tiled.triangles)
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
