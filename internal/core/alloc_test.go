package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TestKernelSteadyStateAllocs pins dynamically what hotpathalloc checks
// statically: once a workspace is warm, one full pass of the per-tile
// kernel loop — row kernels, accumulator probes and inserts, gather
// into the reused tile buffers — performs zero allocations.
func TestKernelSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sq := randMatrix(64, 64, 0.15, r)
	left, _, railed := windowOperands(r)
	// Full-width dense, and a window that spills.
	for _, op := range [][3]*sparse.CSR[float64]{{sq, sq, sq}, {railed, left, railed}} {
		m, a, b := op[0], op[1], op[2]
		for _, it := range []IterationSpace{MaskLoad, CoIter, Hybrid} {
			for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind, accum.AutoKind} {
				cfg := DefaultConfig()
				cfg.Iteration = it
				cfg.Accumulator = ak
				cfg.Tiles = 4
				cfg.Workers = 1
				plan, err := planFor(nil, cfg, 1, m, a, b, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				sr := semiring.PlusTimes[float64]{}
				l := accumulatorFor[float64](cfg, b.Cols, plan)
				ws := exec.Masked[float64](nil, sr, l.Kind, cfg.MarkerBits, b.Cols, l.RowCap, 1, len(plan.Tiles))
				if l.Window > 0 {
					ws = exec.MaskedWindow[float64](nil, sr, cfg.MarkerBits, l.Window, l.RowCap, 1, len(plan.Tiles))
				}
				k := kernel[float64, semiring.PlusTimes[float64]]{
					sr: sr, m: m, a: a, b: b, iter: it, kappa: cfg.Kappa,
				}
				pass := func() {
					for tt, tile := range plan.Tiles {
						runTile(k, ws.Accs[0], tile, &ws.Outs[tt], false, nil, nil)
					}
				}
				// One pass warms the tile output buffers (and any hash growth).
				pass()
				allocs := testing.AllocsPerRun(10, pass)
				if allocs != 0 {
					t.Errorf("%d columns, %v/%v: kernel loop allocates %.1f times per pass, want 0", b.Cols, it, ak, allocs)
				}
			}
		}
	}
}
