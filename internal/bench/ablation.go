package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/tiling"
)

// Ablations measures the secondary design choices DESIGN.md §5 calls
// out, each against the paper's recommended configuration:
//
//   - marker-based vs explicit accumulator reset (SS:GB vs GrB, §III-C),
//   - PlusPair vs PlusTimes semirings for triangle counting,
//   - the vanilla (post-hoc mask) space vs the fused spaces,
//   - accumulator sizing: mask bound (ours) vs flop bound (GrB/SS:GB),
//     shown indirectly through the hash accumulator's growth counters.
func Ablations(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Ablations (ms); recommended config = 2048 balanced tiles, dynamic, hybrid κ=1")
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s %12s\n",
		"Graph", "marker", "explicit", "PlusTimes", "PlusPair", "vanilla")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		base := core.Config{
			Iteration: core.Hybrid, Kappa: 1,
			Accumulator: accum.HashKind, MarkerBits: 32,
			Tiles: 2048, Tiling: tiling.FlopBalanced,
			Schedule: sched.Dynamic, Workers: o.Workers,
		}

		marker, err := o.timeMasked("ablation", g.Name, "marker", a, base)
		if err != nil {
			return err
		}
		expl := base
		expl.Accumulator = accum.HashExplicitKind
		explicit, err := o.timeMasked("ablation", g.Name, "explicit", a, expl)
		if err != nil {
			return err
		}

		pair, err := o.time("ablation", g.Name, "plus-pair", func() (int64, error) {
			return nnz(core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, base))
		})
		if err != nil {
			return err
		}

		van := base
		van.Iteration = core.Vanilla
		vanilla, err := o.singleShot().timeMasked("ablation", g.Name, "vanilla", a, van)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "%-22s %12.2f %12.2f %12.2f %12.2f %12.2f\n",
			g.Name, marker.Millis, explicit.Millis, marker.Millis, pair.Millis,
			vanilla.Millis)
	}
	return nil
}

// singleShot trims the methodology to one cold repetition for the
// deliberately wasteful vanilla space, which can be orders of magnitude
// slower (the circuit5M effect).
func (o Options) singleShot() Options {
	o.Method.Warmups = 0
	o.Method.MaxReps = 1
	return o
}
