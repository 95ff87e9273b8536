// Autotuning: the paper's Figure 12 staged flow (measure tiling →
// co-iteration factor → accumulator state) versus the execution-time
// model predictor from the paper's future-work direction, demonstrated
// on the circuit-style matrix whose default configuration is far from
// optimal — the workload where tuning matters most.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"maskedspgemm/spgemm"
)

func main() {
	// A circuit-simulation-style matrix: thin banded wiring plus a few
	// dense power rails. Without co-iteration, the rails force full
	// scans of enormous rows — the paper's circuit5M pathology.
	a := spgemm.RandomGraph("circuit", 12000, 41)
	s := a.Stats()
	fmt.Printf("circuit-style graph: n=%d nnz=%d max-degree=%d avg=%.1f\n\n",
		s.Rows, s.NNZ, s.MaxRowNNZ, s.AvgRowNNZ)

	run := func(name string, o spgemm.Options) int64 {
		start := time.Now()
		c, err := spgemm.MxM(a, a, a, o)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-34s %10s   (nnz %d)\n", name, time.Since(start).Round(time.Microsecond), c.NNZ())
		return c.NNZ()
	}

	// 1. A deliberately poor choice: linear scanning only.
	bad := spgemm.Defaults()
	bad.Iteration = spgemm.IterMaskLoad
	nnzBad := run("mask-load only (no co-iteration)", bad)

	// 2. The paper's recommended defaults.
	nnzDef := run("paper defaults (hybrid κ=1)", spgemm.Defaults())

	// 3. The execution-time model: one structural pass, no trial runs.
	predicted, err := spgemm.PredictOptions(a, a, a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel predicted: iteration=%d accumulator=%d tiles=%d\n",
		predicted.Iteration, predicted.Accumulator, predicted.Tiles)
	nnzPred := run("model-predicted options", predicted)

	// 4. The full staged tuner (Fig. 12): measures candidate configs.
	fmt.Println("\nstaged tuning (Fig. 12 flow):")
	tuned, err := tune(a, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	nnzTuned := run("staged-tuned options", tuned)

	if nnzBad != nnzDef || nnzDef != nnzPred || nnzPred != nnzTuned {
		log.Fatal("configurations disagree on the result — kernel bug")
	}
	fmt.Println("\nall configurations produced identical results; only time differs")
}

// tune is the paper's Figure 12 staged flow on C = A ⊙ (A × A), timed
// through the public facade (best of two runs per candidate):
//
//  1. tiling, scheduling, accumulator family and tile count, without
//     co-iteration;
//  2. the co-iteration factor κ on the stage-1 winner;
//  3. the accumulator's marker width.
//
// Each stage's decision is logged to w. `spgemm-bench -experiment tune`
// runs the same flow over the whole corpus.
func tune(a *spgemm.Matrix, w io.Writer) (spgemm.Options, error) {
	best, bestDur := spgemm.Defaults(), time.Duration(-1)
	try := func(o spgemm.Options) error {
		d := time.Duration(-1)
		for range 2 {
			start := time.Now()
			if _, err := spgemm.MxM(a, a, a, o); err != nil {
				return err
			}
			if t := time.Since(start); d < 0 || t < d {
				d = t
			}
		}
		if bestDur < 0 || d < bestDur {
			best, bestDur = o, d
		}
		return nil
	}

	for _, tl := range []spgemm.TilingStrategy{spgemm.TileFlopBalanced, spgemm.TileUniform} {
		for _, sc := range []spgemm.Schedule{spgemm.SchedDynamic, spgemm.SchedStatic} {
			for _, acc := range []spgemm.Accumulator{spgemm.AccHash, spgemm.AccDense} {
				for _, tiles := range []int{256, 1024, 2048, 8192} {
					o := spgemm.Defaults()
					o.Iteration, o.Tiling, o.Schedule, o.Accumulator, o.Tiles =
						spgemm.IterMaskLoad, tl, sc, acc, tiles
					if err := try(o); err != nil {
						return spgemm.Options{}, err
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "stage 1 (tiling/scheduling/accumulator): tiles=%d tiling=%d schedule=%d accumulator=%d -> %v\n",
		best.Tiles, best.Tiling, best.Schedule, best.Accumulator, bestDur.Round(time.Microsecond))

	stage1 := best
	for _, kappa := range []float64{0.1, 1, 10} {
		o := stage1
		o.Iteration, o.Kappa = spgemm.IterHybrid, kappa
		if err := try(o); err != nil {
			return spgemm.Options{}, err
		}
	}
	if best.Iteration == spgemm.IterHybrid {
		fmt.Fprintf(w, "stage 2 (κ): κ=%g -> %v\n", best.Kappa, bestDur.Round(time.Microsecond))
	} else {
		fmt.Fprintln(w, "stage 2 (κ): co-iteration does not help; staying with mask-load")
	}

	stage2 := best
	for _, bits := range []int{8, 16, 64} {
		o := stage2
		o.MarkerBits = bits
		if err := try(o); err != nil {
			return spgemm.Options{}, err
		}
	}
	fmt.Fprintf(w, "stage 3 (marker): %d bits -> %v\n", best.MarkerBits, bestDur.Round(time.Microsecond))
	return best, nil
}
