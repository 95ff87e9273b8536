package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
)

// CountersReport runs the instrumented kernel on the corpus and prints
// actual accumulator traffic next to the symbolic model: updates
// attempted (vs Eq. 2's flop term), the share the mask rejected (the
// §III-B waste the co-iteration spaces exist to avoid), and the hybrid
// space's realized saving vs the linear scan.
func CountersReport(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Instrumented kernel counters: actual work vs the Eq. 2/3 model")
	fmt.Fprintf(w, "%-22s %12s %12s %9s %12s %9s\n",
		"Graph", "model-flops", "lin-updates", "rejected", "hyb-updates", "saving")
	sr := semiring.PlusTimes[float64]{}
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		p, err := core.ProfileMasked(a, a, a, 1)
		if err != nil {
			return err
		}
		linCfg := tunedConfig(o.Workers)
		linCfg.Iteration = core.MaskLoad
		_, lin, err := core.MaskedSpGEMMInstrumented[float64](sr, a, a, a, linCfg)
		if err != nil {
			return err
		}
		_, hyb, err := core.MaskedSpGEMMInstrumented[float64](sr, a, a, a, tunedConfig(o.Workers))
		if err != nil {
			return err
		}
		if lin.Updates != p.Flops {
			return fmt.Errorf("%s: linear updates %d != modeled flops %d — model broken",
				g.Name, lin.Updates, p.Flops)
		}
		rejPct := 0.0
		if lin.Updates > 0 {
			rejPct = 100 * float64(lin.Rejected) / float64(lin.Updates)
		}
		saving := 1.0
		if hyb.Updates > 0 {
			saving = float64(lin.Updates) / float64(hyb.Updates)
		}
		fmt.Fprintf(w, "%-22s %12d %12d %8.1f%% %12d %8.2fx\n",
			g.Name, p.Flops, lin.Updates, rejPct, hyb.Updates, saving)
	}
	return nil
}

// StatsReport times the tuned configuration on every corpus graph with
// a live recorder and prints the kernel observability tables: per-phase
// wall times, exact per-worker counters with load-imbalance summaries,
// hybrid Eq. 3 decision counts and accumulator statistics. Each graph
// gets a fresh recorder, so its table covers exactly that graph's runs
// (warm-ups included — they exercise the same kernel; the reps column
// says how many runs were timed). The -json row carries the totals and
// phase times as values.
func StatsReport(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Kernel observability: tuned configuration, per graph")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		cfg := tunedConfig(o.Workers)
		cfg.Engine = o.Engine
		cfg.Recorder = obs.NewRecorder()
		m, err := o.timeMasked("stats", g.Name, cfg.String(), a, cfg)
		if err != nil {
			return err
		}
		st := cfg.Recorder.Stats()
		values := map[string]float64{
			"runs": float64(st.Runs), "tiles": float64(st.Totals.Tiles),
			"rows": float64(st.Totals.Rows), "flops": float64(st.Totals.Flops),
			"gathered": float64(st.Totals.Gathered), "flop_imbalance": st.FlopDist.Imbalance,
		}
		for _, p := range st.Phases {
			values[p.Phase+"_ms"] = p.Millis
		}
		o.Log.Annotate("stats", g.Name, cfg.String(), values)
		fmt.Fprintf(w, "\n%s (%s)\n", g.Name, cfg)
		fmt.Fprintf(w, "  min/mean/p50 ms: %.2f/%.2f/%.2f (stddev %.2f, %d reps, nnz %d)\n",
			m.Millis, m.MeanMillis, m.P50Millis, m.StddevMillis, m.Reps, m.OutputNNZ)
		st.WriteTable(w)
	}
	return nil
}
