// Command spgemm-bench regenerates the tables and figures of "To tile or
// not to tile, that is the question" (IPDPSW 2024) on the synthetic
// corpus. Each experiment prints the same rows/series the paper reports.
//
// Usage:
//
//	spgemm-bench -experiment NAME [flags]
//
// Experiments (bench.Experiments, in table order; "all" runs the first
// fourteen, the rest repeat earlier timings and run only when named):
//
//	table1        Table I: the corpus and its structural statistics
//	fig1          Fig. 1: SuiteSparse-like vs GrB-like vs tuned runtimes
//	fig10, fig11  Figs. 10-11: tile-count x tiling x schedule x accumulator sweep
//	fig13         Fig. 13: accumulator marker widths 8/16/32/64
//	fig14         Fig. 14: runtime vs co-iteration factor κ
//	tune          Fig. 12: staged tuning flow per matrix
//	ablation      reset strategy, semiring and vanilla-space ablations
//	predict       execution-time configuration model vs the default
//	model         Eq. 2/3 cost-model predictions vs measured speedup
//	sortcost      sorted-B requirement: sort cost vs hybrid saving
//	scaling       worker-count sweep
//	counters      instrumented work counts vs the Eq. 2/3 model
//	plan          plan-construction phases, serial vs parallel
//	sched         Static vs Dynamic vs Guided across the tile grid
//	engine        iterative workloads (k-truss, batched BC): no engine vs
//	              warm engine; fails on a warm pool hit rate under 95%
//	              or on a checksum mismatch
//	trsv          triangular solve, serial vs dependency waves; fails
//	              unless the two solutions are bit-identical
//	stats         tuned configuration under a live recorder: phase
//	              times, per-worker counters, accumulator statistics
//	crossover     the tile crossover, regenerated: one-tile vs forced-
//	              tiled time per multiply on products growing through
//	              core's constant, with the ledger model's break-even
//	              work per shape (ignores -shift, -graphs and -engine)
//
// Flags:
//
//	-shift N         halve graph sizes N times (default 0 = benchmark scale)
//	-workers N       kernel worker goroutines (default GOMAXPROCS)
//	-reps N          max timed repetitions per configuration (default 3)
//	-budget D        per-configuration time budget (default 2s)
//	-graphs CSV      restrict to named graphs (default all)
//	-json            write every timed row to results_<experiment>.json
//	                 (maskedspgemm/bench-results/v1, self-validated)
//	-engine          run every experiment against one shared execution engine
//	-pool-cap N      idle-workspace cap for that engine (0 = default)
//	-retention-mb N  size the shared -engine by an N-MiB retention budget
//	-min-trsv-speedup F  after trsv: fail unless waves beat serial by F
//	                 on some graph
//
// Invariants that do not depend on the clock are errors the experiments
// return; the one timing gate (-min-trsv-speedup) judges the logged
// rows after the run, because a timing bound only means something on a
// host with real cores. `go run ./benchmark` (make bench) is the
// end-to-end yardstick; this tool regenerates the paper's figures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	shift := flag.Int("shift", 0, "halve graph sizes this many times")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 3, "max timed repetitions")
	budget := flag.Duration("budget", 2*time.Second, "per-config time budget")
	graphs := flag.String("graphs", "", "comma-separated graph names (default all)")
	jsonOut := flag.Bool("json", false, "write every timed row to results_<experiment>.json")
	useEngine := flag.Bool("engine", false, "run all experiments against one shared execution engine (pooled workspaces + plan cache)")
	poolCap := flag.Int("pool-cap", 0, "idle-workspace cap for -engine (0 = default, negative disables retention)")
	retentionMB := flag.Int64("retention-mb", 0, "size the shared -engine by this retention budget in MiB (0 = use -pool-cap; implies -engine)")
	minTrsvSpeedup := flag.Float64("min-trsv-speedup", 0, "after the trsv experiment, fail unless some graph's wave schedule beats serial by this factor (0 = bit-identity gate only)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the measurement loop between repetitions
	// (and in-flight kernels that observe the context); already-printed
	// experiment sections remain as flushed partial results.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := bench.DefaultOptions()
	o.Shift = *shift
	o.Workers = *workers
	o.Method = bench.Methodology{Warmups: 1, MaxReps: *reps, Budget: *budget, Context: ctx}
	if *graphs != "" {
		for _, g := range strings.Split(*graphs, ",") {
			name := strings.TrimSpace(g)
			if _, ok := bench.FindGraph(name); !ok {
				fmt.Fprintf(os.Stderr, "unknown graph %q; available: %s\n",
					name, strings.Join(bench.CorpusNames(), ", "))
				os.Exit(2)
			}
			o.Graphs = append(o.Graphs, name)
		}
	}
	// The log is always on: -json writes it, the timing gates read it.
	o.Log = &bench.ResultLog{}
	switch {
	case *retentionMB != 0:
		if *retentionMB < 0 {
			fmt.Fprintf(os.Stderr, "-retention-mb must be >= 0, got %d\n", *retentionMB)
			os.Exit(2)
		}
		eng, err := bench.EngineWithBudget(o, *retentionMB<<20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-retention-mb: %v\n", err)
			os.Exit(2)
		}
		o.Engine = eng
	case *useEngine:
		o.Engine = exec.New(exec.Config{MaxIdle: *poolCap})
	}

	w := os.Stdout
	fail := func(what string, err error) {
		if errors.Is(err, core.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", what, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		}
		os.Exit(1)
	}
	experiments := bench.Experiments()
	ran := false
	for _, e := range experiments {
		if !e.Selected(*experiment) {
			continue
		}
		ran = true
		fmt.Fprintf(w, "=== %s ===\n", e.Name)
		start := time.Now()
		if err := e.Run(w, o); err != nil {
			fail(e.Name, err)
		}
		fmt.Fprintf(w, "[%s took %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		var names []string
		for _, e := range experiments {
			names = append(names, e.Name)
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all, %s\n", *experiment, strings.Join(names, ", "))
		os.Exit(2)
	}
	// The timing gate judges the rows the run just logged.
	if *minTrsvSpeedup > 0 {
		if err := bench.CheckWaveSpeedup(o.Log, *minTrsvSpeedup); err != nil {
			fail("-min-trsv-speedup", err)
		}
		fmt.Fprintf(w, "wave schedule beats serial by >= %.2fx on at least one graph\n", *minTrsvSpeedup)
	}
	if *jsonOut {
		if err := writeResults(o.Log, *experiment); err != nil {
			fail("-json", err)
		}
	}
}

// writeResults writes the run's timed rows to results_<experiment>.json,
// reads the file back, and checks it strictly round-trips through
// bench-results/v1 — so a file the tool emits is a file its consumers
// can parse.
func writeResults(log *bench.ResultLog, experiment string) error {
	if log.Len() == 0 {
		fmt.Fprintf(os.Stderr, "-json: %s times nothing; no file written\n", experiment)
		return nil
	}
	path := fmt.Sprintf("results_%s.json", experiment)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteJSON(f, experiment); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := bench.ValidateResultJSON(data); err != nil {
		return fmt.Errorf("self-validation of %s failed: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, schema validated)\n", path, len(data))
	return nil
}
