package bench

import (
	"fmt"
	"io"
	"runtime"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/tiling"
)

// planWorkerCounts is the worker sweep for the plan-construction
// benchmark: serial, then doublings up to at least 8 (past GOMAXPROCS
// the rows document that oversubscription is harmless, not helpful).
func planWorkerCounts() []int {
	maxW := runtime.GOMAXPROCS(0)
	if maxW < 8 {
		maxW = 8
	}
	var counts []int
	for c := 1; c <= maxW; c *= 2 {
		counts = append(counts, c)
	}
	return counts
}

// PlanBench measures the plan-construction phases serial vs parallel,
// each row adding one pass of the planner's pipeline: the Eq. 2 work
// estimation (RowWork), then its in-place prefix sum
// (tiling.WorkPrefixE), then the tile boundaries
// (tiling.MakeParallelE). One row per phase, one column per worker
// count.
func PlanBench(w io.Writer, o Options) error {
	graphs := o.Graphs
	if len(graphs) == 0 {
		// One large social graph: skewed degrees, big nnz — the regime
		// where serial O(nnz) plan passes dominate Amdahl's law.
		graphs = []string{"com-LiveJournal-sim"}
	}
	counts := planWorkerCounts()
	for _, name := range graphs {
		g, ok := FindGraph(name)
		if !ok {
			return fmt.Errorf("unknown graph %q", name)
		}
		a := g.Build(o.Shift)
		fmt.Fprintf(w, "%s (n=%d, nnz=%d): plan-phase runtime (ms) vs workers\n",
			g.Name, a.Rows, a.NNZ())
		fmt.Fprintf(w, "%-28s", "phase \\ workers")
		for _, c := range counts {
			fmt.Fprintf(w, "%10d", c)
		}
		fmt.Fprintln(w)

		phases := []struct {
			name string
			run  func(p int) (int64, error)
		}{
			{"RowWork (Eq. 2)", func(p int) (int64, error) {
				prefix := make([]int64, a.Rows+1)
				if err := tiling.RowWorkParallelE(nil, prefix[1:], a, a, a, p); err != nil {
					return 0, err
				}
				return prefix[a.Rows], nil
			}},
			{"RowWork+PrefixSum", func(p int) (int64, error) {
				prefix, err := tiling.WorkPrefixE(nil, a, a, a, p, nil)
				if err != nil {
					return 0, err
				}
				return prefix[a.Rows], nil
			}},
			{"BalancedTiles (all three)", func(p int) (int64, error) {
				tiles, err := tiling.MakeParallelE(nil, tiling.FlopBalanced, 2048, p, a, a, a)
				return int64(len(tiles)), err
			}},
		}
		for _, ph := range phases {
			fmt.Fprintf(w, "%-28s", ph.name)
			for _, c := range counts {
				meas, err := o.time("plan", g.Name, fmt.Sprintf("%s@%d", ph.name, c),
					func() (int64, error) { return ph.run(c) })
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%10.3f", meas.Millis)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// SchedSweep compares the three scheduling policies — Static, Dynamic,
// Guided — across the paper's Fig. 11 tile-count grid (64…32768),
// MaskLoad iteration with hash accumulators and FLOP-balanced tiles.
// Guided targets the top of the grid: at 32768 tiles Dynamic pays one
// atomic operation per tile while Guided claims shrinking chunks.
func SchedSweep(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Scheduler sweep: runtime (ms) vs tile count; MaskLoad, hash, FLOP-balanced tiles")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		fmt.Fprintf(w, "\n%s (n=%d, nnz=%d)\n", g.Name, a.Rows, a.NNZ())
		fmt.Fprintf(w, "%-10s", "policy")
		for _, tc := range o.TileCounts {
			fmt.Fprintf(w, "%10d", tc)
		}
		fmt.Fprintln(w)
		for _, sp := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
			fmt.Fprintf(w, "%-10v", sp)
			series := make([]float64, 0, len(o.TileCounts))
			for _, tc := range o.TileCounts {
				cfg := core.Config{
					Iteration: core.MaskLoad, Kappa: 1,
					Accumulator: accum.HashKind, MarkerBits: 32,
					Tiles: tc, Tiling: tiling.FlopBalanced,
					Schedule: sp, Workers: o.Workers, Engine: o.Engine,
				}
				meas, err := o.timeMasked("sched", g.Name, fmt.Sprintf("%v@%d", sp, tc), a, cfg)
				if err != nil {
					return err
				}
				series = append(series, meas.Millis)
				fmt.Fprintf(w, "%10.2f", meas.Millis)
			}
			fmt.Fprintf(w, "  %s\n", sparkline(series))
		}
	}
	return nil
}
