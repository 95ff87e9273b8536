package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Formulations compares the masked-SpGEMM formulations beyond row-wise
// saxpy on the corpus benchmark C = A ⊙ (A×A):
//
//   - saxpy/MaskLoad: the paper's Fig. 5 linear scan,
//   - saxpy/Hybrid:   the paper's Fig. 9 push-pull (κ=1),
//   - dot:            the inner-product formulation that iterates mask
//     entries directly (related-work direction),
//   - 2-D tiles:      the panel-major extension of §V-A (8 k-panels).
//
// All four must agree on the output; the table reports runtimes.
func Formulations(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Kernel formulations (ms) on C = A ⊙ (A×A); 2048 balanced tiles, dynamic")
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s\n",
		"Graph", "saxpy-load", "saxpy-hyb", "dot", "2D(8 panels)")
	sr := semiring.PlusTimes[float64]{}
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		// The dot formulation needs Bᵀ; for web graphs (directed) that is
		// a real transpose, for the symmetric families it equals A.
		bT := sparse.Transpose(a)

		loadCfg := tunedConfig(o.Workers)
		loadCfg.Iteration = core.MaskLoad
		load, err := o.timeMasked("formulations", g.Name, "saxpy-load", a, loadCfg)
		if err != nil {
			return err
		}
		hyb, err := o.timeMasked("formulations", g.Name, "saxpy-hyb", a, tunedConfig(o.Workers))
		if err != nil {
			return err
		}
		dotCfg := tunedConfig(o.Workers)
		dot, err := o.time("formulations", g.Name, "dot", func() (int64, error) {
			return nnz(core.MaskedSpGEMMDot[float64](sr, a, a, bT, dotCfg))
		})
		if err != nil {
			return err
		}
		twoD, err := o.time("formulations", g.Name, "2D(8 panels)", func() (int64, error) {
			return nnz(core.MaskedSpGEMM2D[float64](sr, a, a, a, dotCfg, 8))
		})
		if err != nil {
			return err
		}
		if load.OutputNNZ != dot.OutputNNZ || load.OutputNNZ != twoD.OutputNNZ {
			return fmt.Errorf("%s: formulations disagree on output nnz (%d/%d/%d)",
				g.Name, load.OutputNNZ, dot.OutputNNZ, twoD.OutputNNZ)
		}
		fmt.Fprintf(w, "%-22s %12.2f %12.2f %12.2f %12.2f\n",
			g.Name, load.Millis, hyb.Millis, dot.Millis, twoD.Millis)
	}
	return nil
}
