package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// tune implements the paper's Figure 12 tuning flow on one matrix,
// logging its timings under the graph's name:
//
//  1. sweep tiling and scheduling without co-iteration,
//  2. tune the co-iteration factor κ on the winner,
//  3. tune the accumulator's internal state (marker width).
//
// It returns the tuned configuration and logs the per-stage decisions.
func tune(graph string, a *sparse.CSR[float64], o Options, log io.Writer) (core.Config, error) {
	timeCfg := func(cfg core.Config) (Measurement, error) {
		return o.timeMasked("tune", graph, cfg.String(), a, cfg)
	}

	// Stage 1: tiling and scheduling, MaskLoad, both accumulators.
	best := core.Config{}
	bestMs := -1.0
	for _, ts := range []tiling.Strategy{tiling.FlopBalanced, tiling.Uniform} {
		for _, sp := range []sched.Policy{sched.Dynamic, sched.Static} {
			for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
				for _, tc := range o.TileCounts {
					cfg := core.Config{
						Iteration: core.MaskLoad, Kappa: 1,
						Accumulator: ak, MarkerBits: 32,
						Tiles: tc, Tiling: ts, Schedule: sp, Workers: o.Workers, Engine: o.Engine,
					}
					meas, err := timeCfg(cfg)
					if err != nil {
						return core.Config{}, err
					}
					if bestMs < 0 || meas.Millis < bestMs {
						bestMs = meas.Millis
						best = cfg
					}
				}
			}
		}
	}
	fmt.Fprintf(log, "stage 1 (tiling/scheduling): %v  -> %.2f ms\n", best, bestMs)

	// Stage 2: co-iteration factor on top of the stage-1 winner.
	best.Iteration = core.Hybrid
	bestKappa := 0.0 // 0 = keep MaskLoad
	for _, k := range o.Kappas {
		cfg := best
		cfg.Kappa = k
		meas, err := timeCfg(cfg)
		if err != nil {
			return core.Config{}, err
		}
		if meas.Millis < bestMs {
			bestMs = meas.Millis
			bestKappa = k
		}
	}
	if bestKappa == 0 {
		best.Iteration = core.MaskLoad
		best.Kappa = 1
		fmt.Fprintf(log, "stage 2 (κ): co-iteration does not help; staying with MaskLoad\n")
	} else {
		best.Kappa = bestKappa
		fmt.Fprintf(log, "stage 2 (κ): κ=%g -> %.2f ms\n", bestKappa, bestMs)
	}

	// Stage 3: accumulator state width.
	for _, bits := range []int{8, 16, 32, 64} {
		cfg := best
		cfg.MarkerBits = bits
		meas, err := timeCfg(cfg)
		if err != nil {
			return core.Config{}, err
		}
		if meas.Millis < bestMs {
			bestMs = meas.Millis
			best = cfg
		}
	}
	fmt.Fprintf(log, "stage 3 (marker): %d bits -> final %v  %.2f ms\n", best.MarkerBits, best, bestMs)
	return best, nil
}

// TuneReport runs the Figure 12 flow over the corpus and prints each
// matrix's tuned configuration.
func TuneReport(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Figure 12 flow: staged tuning per matrix")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		fmt.Fprintf(w, "\n%s:\n", g.Name)
		cfg, err := tune(g.Name, a, o, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "tuned: %v\n", cfg)
	}
	return nil
}
