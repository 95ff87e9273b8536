package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/baseline"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// Options parameterizes an experiment run.
type Options struct {
	// Shift scales the corpus down: each unit roughly halves graph size.
	Shift int
	// Workers is the kernel worker count (0 = GOMAXPROCS).
	Workers int
	// Method is the timing methodology.
	Method Methodology
	// TileCounts is the Fig. 10/11 sweep grid.
	TileCounts []int
	// Kappas is the Fig. 14 sweep grid.
	Kappas []float64
	// Graphs restricts the corpus (nil = all).
	Graphs []string
	// Log, when non-nil, collects every measurement Options.time takes,
	// so each text table has a machine-readable twin (the -json flag)
	// and the timing gates have rows to judge. nil discards.
	Log *ResultLog
	// Engine, when non-nil, is attached to every kernel configuration
	// the experiments build (the -engine flag), so repeated timed runs
	// recycle pooled workspaces and cached plans instead of allocating
	// per call.
	Engine *exec.Engine
}

// DefaultOptions mirrors the paper's sweep grids at laptop scale.
func DefaultOptions() Options {
	return Options{
		Shift:      0,
		Workers:    0,
		Method:     DefaultMethodology(),
		TileCounts: []int{64, 256, 1024, 2048, 8192, 32768},
		Kappas:     []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000},
	}
}

func (o Options) corpus() []GraphSpec {
	if len(o.Graphs) == 0 {
		return Corpus
	}
	var out []GraphSpec
	for _, name := range o.Graphs {
		if g, ok := FindGraph(name); ok {
			out = append(out, g)
		}
	}
	return out
}

// Experiment is one named section of spgemm-bench's output.
type Experiment struct {
	// Name is what -experiment selects and what the experiment's rows
	// are logged under; a "+"-joined name answers to each of its parts
	// (fig10 and fig11 are one sweep).
	Name string
	// InAll marks the experiments -experiment all runs. The rest repeat
	// work an earlier section already timed, or inject faults, and run
	// only when named.
	InAll bool
	// Run prints the experiment's table to w. Deterministic invariants
	// (checksum agreement, bit-identity, pool hit rate, allocation
	// bounds) are errors it returns.
	Run func(w io.Writer, o Options) error
}

// Selected reports whether the -experiment value selects e.
func (e Experiment) Selected(selection string) bool {
	if selection == "all" {
		return e.InAll
	}
	return selection == e.Name || slices.Contains(strings.Split(e.Name, "+"), selection)
}

// Experiments is the harness's one table: every section spgemm-bench
// can print, in the order -experiment all prints them. chaosSeed seeds
// the chaos drill's fault matrix (0 = 1) — the only experiment input
// that is neither the corpus nor the methodology.
func Experiments(chaosSeed int64) []Experiment {
	if chaosSeed == 0 {
		chaosSeed = 1
	}
	return []Experiment{
		{"table1", true, Table1},
		{"fig1", true, Fig1},
		{"fig10+fig11", true, TileSweep},
		{"fig13", true, Fig13},
		{"fig14", true, Fig14},
		{"tune", true, TuneReport},
		{"ablation", true, Ablations},
		{"predict", true, PredictReport},
		{"model", true, ModelValidation},
		{"sortcost", true, SortCost},
		{"scaling", true, Scaling},
		{"counters", true, CountersReport},
		{"plan", true, PlanBench},
		{"sched", true, SchedSweep},
		{"engine", false, EngineBench},
		{"trsv", false, TrsvBench},
		{"chaos", false, func(w io.Writer, o Options) error { return ChaosDrill(w, o, chaosSeed) }},
		{"stats", false, StatsReport},
		{"crossover", false, CrossoverBench},
	}
}

// Table1 regenerates the paper's Table I: the corpus with its structural
// statistics, alongside the original matrices' sizes.
func Table1(w io.Writer, o Options) error {
	fmt.Fprintf(w, "Table I: corpus (synthetic stand-ins at shift=%d vs paper originals)\n", o.Shift)
	fmt.Fprintf(w, "%-22s %-4s %10s %12s %8s %8s | %12s %12s\n",
		"Name", "Kind", "n", "nnz", "avg-deg", "max-deg", "paper-n", "paper-nnz")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		s := sparse.ComputeStats(a, false)
		fmt.Fprintf(w, "%-22s %-4s %10d %12d %8.1f %8d | %12d %12d\n",
			g.Name, g.Kind, s.Rows, s.NNZ, s.AvgRowNNZ, s.MaxRowNNZ, g.PaperN, g.PaperNNZ)
	}
	return nil
}

// tunedConfig is the paper's recommended configuration, the accumulator
// family derived per product as under core.DefaultConfig.
func tunedConfig(workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// Fig1 regenerates Figure 1: masked-SpGEMM runtimes for the
// SuiteSparse:GraphBLAS-like, GrB-like, and tuned implementations on
// every corpus graph, hash accumulators throughout.
func Fig1(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Figure 1: masked-SpGEMM C = A ⊙ (A×A) runtimes (ms), hash accumulators")
	fmt.Fprintf(w, "%-22s %14s %14s %14s\n", "Graph", "SuiteSparse~", "GrB~", "Ours(tuned)")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)

		ssCfg := baseline.SuiteSparseConfig(a, a, a, o.Workers)
		ssCfg.Accumulator = accum.HashKind // Fig. 1 pins the accumulator family
		ss, err := o.timeMasked("fig1", g.Name, "suitesparse-like", a, ssCfg)
		if err != nil {
			return err
		}
		grb, err := o.timeMasked("fig1", g.Name, "grb-like", a, baseline.GrBConfig(accum.HashKind, o.Workers))
		if err != nil {
			return err
		}
		cfg := tunedConfig(o.Workers)
		cfg.Accumulator = accum.HashKind
		cfg.Engine = o.Engine
		ours, err := o.timeMasked("fig1", g.Name, "tuned", a, cfg)
		if err != nil {
			return err
		}
		if ss.OutputNNZ != grb.OutputNNZ || ss.OutputNNZ != ours.OutputNNZ {
			return fmt.Errorf("%s: implementations disagree on output nnz", g.Name)
		}
		fmt.Fprintf(w, "%-22s %14.2f %14.2f %14.2f\n", g.Name, ss.Millis, grb.Millis, ours.Millis)
	}
	return nil
}

// sweepLabel names a (tiling, schedule, accumulator) combination the way
// the paper's figures do.
func sweepLabel(ts tiling.Strategy, sp sched.Policy, ak accum.Kind) string {
	return fmt.Sprintf("%v,%v,%v", ts, sp, ak)
}

// TileSweep runs the Figs. 10–11 grid over the corpus: tile counts ×
// {FlopBalanced,Uniform} × {Static,Dynamic} × {Dense,Hash}, iteration
// space fixed to MaskLoad (the paper's §IV-C excludes co-iteration from
// this sweep). It prints the per-graph series (Fig. 11), then the
// per-(config,tiles) table keyed as "label@tiles" aggregated into
// Fig. 10.
func TileSweep(w io.Writer, o Options) error {
	rel := NewRelativeTable()
	fmt.Fprintln(w, "Figure 11: runtime (ms) vs tile count, per graph; MaskLoad iteration, 32-bit markers")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		fmt.Fprintf(w, "\n%s (n=%d, nnz=%d)\n", g.Name, a.Rows, a.NNZ())
		fmt.Fprintf(w, "%-34s", "config \\ tiles")
		for _, tc := range o.TileCounts {
			fmt.Fprintf(w, "%10d", tc)
		}
		fmt.Fprintln(w)
		for _, ts := range []tiling.Strategy{tiling.FlopBalanced, tiling.Uniform} {
			for _, sp := range []sched.Policy{sched.Dynamic, sched.Static} {
				for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
					label := sweepLabel(ts, sp, ak)
					fmt.Fprintf(w, "%-34s", label)
					series := make([]float64, 0, len(o.TileCounts))
					for _, tc := range o.TileCounts {
						cfg := core.Config{
							Iteration: core.MaskLoad, Kappa: 1,
							Accumulator: ak, MarkerBits: 32,
							Tiles: tc, Tiling: ts, Schedule: sp, Workers: o.Workers, Engine: o.Engine,
						}
						config := fmt.Sprintf("%s@%d", label, tc)
						meas, err := o.timeMasked("fig10+fig11", g.Name, config, a, cfg)
						if err != nil {
							return err
						}
						rel.Add(config, g.Name, meas.Millis)
						series = append(series, meas.Millis)
						fmt.Fprintf(w, "%10.2f", meas.Millis)
					}
					fmt.Fprintf(w, "  %s\n", sparkline(series))
				}
			}
		}
	}
	Fig10(w, rel)
	return nil
}

// Fig10 aggregates a TileSweep table into the paper's Figure 10:
// percentage of matrices within 10% of the per-matrix best, for every
// (tiling, scheduling, accumulator, tile count) configuration. Per the
// paper's methodology the comparison is split by accumulator: each
// configuration competes against the best configuration using the same
// accumulator family.
func Fig10(w io.Writer, rel *RelativeTable) {
	fmt.Fprintln(w, "\nFigure 10: percentage of matrices within 10% of best (split by accumulator)")
	fmt.Fprintf(w, "%-34s %10s %8s\n", "config", "tiles", "pct<=10%")
	pct := rel.WithinPercentGrouped(accumGroup, 0.10)
	for _, cfg := range rel.Configs() {
		at := strings.LastIndexByte(cfg, '@')
		if at < 0 {
			continue
		}
		fmt.Fprintf(w, "%-34s %10s %7.0f%%\n", cfg[:at], cfg[at+1:], pct[cfg])
	}
}

// accumGroup extracts the accumulator family from a sweep label of the
// form "Tiling,Schedule,Accumulator@tiles".
func accumGroup(cfg string) string {
	s := cfg
	if at := strings.LastIndexByte(s, '@'); at >= 0 {
		s = s[:at]
	}
	if c := strings.LastIndexByte(s, ','); c >= 0 {
		return s[c+1:]
	}
	return s
}

// Fig13 regenerates Figure 13: relative performance of accumulator
// marker widths 8/16/32/64 for both families, κ fixed at 1 with the
// paper's safe tiling choice (2048 balanced tiles, dynamic).
func Fig13(w io.Writer, o Options) error {
	rel := NewRelativeTable()
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
			for _, bits := range []int{8, 16, 32, 64} {
				cfg := core.Config{
					Iteration: core.Hybrid, Kappa: 1,
					Accumulator: ak, MarkerBits: bits,
					Tiles: 2048, Tiling: tiling.FlopBalanced,
					Schedule: sched.Dynamic, Workers: o.Workers, Engine: o.Engine,
				}
				config := fmt.Sprintf("%v@%d", ak, bits)
				meas, err := o.timeMasked("fig13", g.Name, config, a, cfg)
				if err != nil {
					return err
				}
				rel.Add(config, g.Name, meas.Millis)
			}
		}
	}
	fmt.Fprintln(w, "Figure 13: percentage of matrices within 10% of best, per marker width (split by accumulator)")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s\n", "acc", "8b", "16b", "32b", "64b")
	pct := rel.WithinPercentGrouped(func(cfg string) string {
		if at := strings.LastIndexByte(cfg, '@'); at >= 0 {
			return cfg[:at]
		}
		return cfg
	}, 0.10)
	for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
		fmt.Fprintf(w, "%-10v", ak)
		for _, bits := range []int{8, 16, 32, 64} {
			fmt.Fprintf(w, "%7.0f%%", pct[fmt.Sprintf("%v@%d", ak, bits)])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig14 regenerates Figure 14: runtime vs co-iteration factor κ for the
// four representative matrices, both accumulators, with the
// no-co-iteration (MaskLoad) baseline as the dashed reference.
func Fig14(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Figure 14: runtime (ms) vs co-iteration factor κ; 2048 balanced tiles, dynamic")
	graphs := o.Graphs
	if len(graphs) == 0 {
		graphs = Fig14Graphs
	}
	for _, name := range graphs {
		g, ok := FindGraph(name)
		if !ok {
			return fmt.Errorf("unknown graph %q", name)
		}
		a := g.Build(o.Shift)
		fmt.Fprintf(w, "\n%s (n=%d, nnz=%d)\n", g.Name, a.Rows, a.NNZ())
		fmt.Fprintf(w, "%-8s", "acc\\κ")
		for _, k := range o.Kappas {
			fmt.Fprintf(w, "%10g", k)
		}
		fmt.Fprintf(w, "%12s\n", "no-coiter")
		for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
			fmt.Fprintf(w, "%-8v", ak)
			series := make([]float64, 0, len(o.Kappas))
			for _, k := range o.Kappas {
				cfg := core.Config{
					Iteration: core.Hybrid, Kappa: k,
					Accumulator: ak, MarkerBits: 32,
					Tiles: 2048, Tiling: tiling.FlopBalanced,
					Schedule: sched.Dynamic, Workers: o.Workers, Engine: o.Engine,
				}
				meas, err := o.timeMasked("fig14", g.Name, fmt.Sprintf("%v@%g", ak, k), a, cfg)
				if err != nil {
					return err
				}
				series = append(series, meas.Millis)
				fmt.Fprintf(w, "%10.2f", meas.Millis)
			}
			// Dashed baseline: the algorithm that never co-iterates.
			base := core.Config{
				Iteration: core.MaskLoad, Kappa: 1,
				Accumulator: ak, MarkerBits: 32,
				Tiles: 2048, Tiling: tiling.FlopBalanced,
				Schedule: sched.Dynamic, Workers: o.Workers,
			}
			meas, err := o.timeMasked("fig14", g.Name, fmt.Sprintf("%v@no-coiter", ak), a, base)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12.2f  %s\n", meas.Millis, sparkline(series))
		}
	}
	return nil
}
