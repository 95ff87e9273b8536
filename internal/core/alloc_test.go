package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
)

// TestKernelSteadyStateAllocs pins dynamically what hotpathalloc checks
// statically: once a workspace is warm, one full pass of the per-tile
// kernel loop — row kernels, accumulator probes and inserts, gather
// into the reused tile buffers — performs zero allocations.
func TestKernelSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randMatrix(64, 64, 0.15, r)
	for _, it := range []IterationSpace{MaskLoad, CoIter, Hybrid} {
		for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind, accum.AutoKind} {
			cfg := DefaultConfig()
			cfg.Iteration = it
			cfg.Accumulator = ak
			cfg.Tiles = 4
			cfg.Workers = 1
			plan, err := planFor(nil, cfg, 1, a, a, a, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sr := semiring.PlusTimes[float64]{}
			kind := accumulatorFor[float64](cfg, a.Cols, plan.RowCap)
			ws := exec.Masked[float64](nil, sr, kind, cfg.MarkerBits, a.Cols, plan.RowCap, 1, len(plan.Tiles))
			k := kernel[float64, semiring.PlusTimes[float64]]{
				sr: sr, m: a, a: a, b: a, iter: it, kappa: cfg.Kappa,
			}
			pass := func() {
				for tt, tile := range plan.Tiles {
					runTile(k, ws.Accs[0], nil, tile, &ws.Outs[tt], false, nil, nil)
				}
			}
			// One pass warms the tile output buffers (and any hash growth).
			pass()
			allocs := testing.AllocsPerRun(10, pass)
			if allocs != 0 {
				t.Errorf("%v/%v: kernel loop allocates %.1f times per pass, want 0", it, ak, allocs)
			}
		}
	}
}
