package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/sparse"
)

// PredictReport evaluates the execution-time configuration model (the
// paper's conclusion future-work item, implemented in internal/model)
// against the default configuration and the per-(i,k) cost model's own
// predictions: for each corpus graph it prints the extracted features,
// the predicted configuration, the accumulator the default run derives
// next to the one the model predicts from the features, and measured
// runtimes of default vs predicted, and the row kernel the planner
// prices cheaper for the triangle count's lower view of the symmetrized
// graph (core.PriceView), with both predicted times. The two
// accumulators must agree.
func PredictReport(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Model-based tuning: features -> predicted config vs paper default")
	fmt.Fprintf(w, "%-22s %10s %8s %10s | %-18s %-20s %-20s %12s %12s | %-24s\n",
		"Graph", "flops/pos", "skew", "coit-pred", "predicted-config", "default-acc", "predicted-acc",
		"default-ms", "predicted-ms", "view-kernel acc/merge-ms")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		cfg, f, err := model.PredictConfig(a, a, a, o.Workers)
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		defAcc, err := core.AccumulatorOf(a, a, a, tunedConfig(o.Workers))
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		predAcc := model.PredictAccumulator(f, cfg.MarkerBits)
		if defAcc != predAcc {
			return fmt.Errorf("%s: the default run derives %v, the model predicts %v", g.Name, defAcc, predAcc)
		}
		def, err := o.timeMasked("predict", g.Name, "default", a, tunedConfig(o.Workers))
		if err != nil {
			return err
		}
		pred, err := o.timeMasked("predict", g.Name, "predicted", a, cfg)
		if err != nil {
			return err
		}
		if def.OutputNNZ != pred.OutputNNZ {
			return fmt.Errorf("%s: predicted config changed the result", g.Name)
		}
		sym := sparse.Symmetrize(a)
		l, err := core.AccumulatorOf(sym, sym, sym, tunedConfig(o.Workers))
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name, err)
		}
		merge, accNs, mergeNs := core.PriceView(sym, l)
		kernel := map[bool]string{false: "acc", true: "merge"}[merge]
		short := fmt.Sprintf("%v t=%d", cfg.Iteration, cfg.Tiles)
		fmt.Fprintf(w, "%-22s %10.1f %8.1f %9.2fx | %-18s %-20v %-20v %12.2f %12.2f | %-5s %8.3f/%-9.3f\n",
			g.Name, f.AvgFlopsPerUpdatePos, f.DegreeSkew, f.CoIterSpeedup,
			short, defAcc, predAcc, def.Millis, pred.Millis, kernel, accNs/1e6, mergeNs/1e6)
	}
	return nil
}

// timeLoadVsHybrid times the tuned configuration without and with
// co-iteration — the pair both the cost-model validation and the
// sorted-B ablation compare.
func (o Options) timeLoadVsHybrid(experiment, graph string, a *sparse.CSR[float64]) (lin, hyb Measurement, err error) {
	linCfg := tunedConfig(o.Workers)
	linCfg.Iteration = core.MaskLoad
	if lin, err = o.timeMasked(experiment, graph, "maskload", a, linCfg); err != nil {
		return
	}
	hyb, err = o.timeMasked(experiment, graph, "hybrid", a, tunedConfig(o.Workers))
	return
}

// ModelValidation prints the Eq. 2 / Eq. 3 cost-model quantities per
// graph (the symbolic profile) next to measured hybrid vs mask-load
// runtimes, quantifying how well the model's predicted co-iteration
// speedup tracks reality — the paper's §V-B claim that "the estimate
// from Equation 3 is accurate relative to the linear estimate from
// Equation 2".
func ModelValidation(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Cost-model validation: predicted co-iteration speedup vs measured (κ=1)")
	fmt.Fprintf(w, "%-22s %12s %12s %10s | %12s %12s %10s\n",
		"Graph", "flops", "hybrid-cost", "predicted", "maskload-ms", "hybrid-ms", "measured")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		p, err := core.ProfileMasked(a, a, a, 1)
		if err != nil {
			return err
		}
		lin, hyb, err := o.timeLoadVsHybrid("model", g.Name, a)
		if err != nil {
			return err
		}
		measured := lin.Millis / hyb.Millis
		fmt.Fprintf(w, "%-22s %12d %12d %9.2fx | %12.2f %12.2f %9.2fx\n",
			g.Name, p.Flops, p.HybridCost, p.PredictedCoIterSpeedup(),
			lin.Millis, hyb.Millis, measured)
	}
	return nil
}
