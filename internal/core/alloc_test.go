package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
)

// TestKernelSteadyStateAllocs pins dynamically what hotpathalloc checks
// statically: once a Multiplier is warm, one full pass of the per-tile
// kernel loop — row kernels, accumulator probes and inserts, gather
// into the reused tile buffers — performs zero allocations.
func TestKernelSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randMatrix(64, 64, 0.15, r)
	for _, it := range []IterationSpace{MaskLoad, CoIter, Hybrid} {
		for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
			cfg := DefaultConfig()
			cfg.Iteration = it
			cfg.Accumulator = ak
			cfg.Tiles = 4
			cfg.Workers = 1
			mu, err := NewMultiplier[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One run warms the tile output buffers (and any hash growth).
			if _, err := mu.Multiply(); err != nil {
				t.Fatal(err)
			}
			k := kernel[float64, semiring.PlusTimes[float64]]{
				sr: mu.p.sr, m: mu.p.m, a: mu.p.a, b: mu.p.b, iter: it, kappa: cfg.Kappa,
			}
			allocs := testing.AllocsPerRun(10, func() {
				for tt, tile := range mu.plan.Tiles {
					runTile(k, mu.ws.Accs[0], nil, tile, &mu.ws.Outs[tt], false, nil, nil)
				}
			})
			if allocs != 0 {
				t.Errorf("%v/%v: kernel loop allocates %.1f times per pass, want 0", it, ak, allocs)
			}
		}
	}
}
