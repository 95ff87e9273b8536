// Command trianglecount counts triangles in a graph given as a
// MatrixMarket file (or a generated corpus graph), using the masked
// SpGEMM kernel — the paper's benchmark workload end to end.
//
// Usage:
//
//	trianglecount -in graph.mtx [-method burkhardt|sandia|cohen] [flags]
//	trianglecount -corpus GAP-road-sim [-shift N] [flags]
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
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/telemetry"
)

func main() {
	in := flag.String("in", "", "MatrixMarket input file")
	corpus := flag.String("corpus", "", "use a generated corpus graph instead of -in")
	shift := flag.Int("shift", 0, "halve corpus graph sizes this many times")
	method := flag.String("method", "burkhardt", "burkhardt | sandia | cohen")
	tiles := flag.Int("tiles", 2048, "tile count")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	kappa := flag.Float64("kappa", 1, "co-iteration factor")
	statsFlag := flag.Bool("stats", false, "print kernel observability stats after counting")
	statsJSON := flag.String("stats-json", "", "write kernel observability stats to this JSON file")
	useEngine := flag.Bool("engine", false, "pool workspaces and plans in an execution engine across -repeat runs")
	repeat := flag.Int("repeat", 1, "count this many times (with -engine, later runs recycle pooled workspaces)")
	adaptKappa := flag.Bool("adaptive-kappa", false, "recalibrate κ online across -repeat runs, starting from -kappa (requires -engine)")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /stats, /flight, pprof) on this address while counting (e.g. :6060)")
	flag.Parse()

	var a *sparse.CSR[float64]
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*in, ".bin") {
			a, err = mtx.ReadBinary(f)
		} else {
			a, err = mtx.Read(f)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
		// Triangle counting needs a symmetric, loop-free pattern.
		a = sparse.DropDiagonal(sparse.Symmetrize(a)).Pattern()
	case *corpus != "":
		g, ok := bench.FindGraph(*corpus)
		if !ok {
			fatal(fmt.Errorf("unknown corpus graph %q", *corpus))
		}
		built := g.Build(*shift)
		// Web graphs are directed; symmetrize for triangle counting.
		a = sparse.DropDiagonal(sparse.Symmetrize(built)).Pattern()
	default:
		flag.Usage()
		os.Exit(2)
	}

	var m graph.TriangleMethod
	switch *method {
	case "burkhardt":
		m = graph.Burkhardt
	case "sandia":
		m = graph.SandiaLL
	case "cohen":
		m = graph.Cohen
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	// SIGINT/SIGTERM cancel the in-flight multiplication cooperatively:
	// workers drain, buffers stay consistent, and the process exits
	// through the normal error path instead of a raw panic trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := core.DefaultConfig()
	cfg.Tiles = *tiles
	cfg.Workers = *workers
	cfg.Kappa = *kappa
	cfg.Context = ctx
	if *statsFlag || *statsJSON != "" || *listen != "" {
		cfg.Recorder = obs.NewRecorder()
	}
	var eng *exec.Engine
	if *useEngine {
		eng = exec.New(exec.Config{})
		cfg.Engine = eng
	}
	// -listen serves the live registry for the duration of the count:
	// latency histograms fed by the run's recorder, pool gauges from the
	// engine when -engine is set, pprof and expvar for deeper digging.
	if *listen != "" {
		tel := telemetry.New(telemetry.Config{})
		tel.AttachRecorder(cfg.Recorder)
		tel.AttachEngine(eng)
		srv, err := tel.Start(*listen)
		if err != nil {
			fatal(fmt.Errorf("-listen %s: %w", *listen, err))
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry listening on %s (metrics: %s/metrics)\n",
			srv.Addr(), srv.URL())
	}
	// Online κ recalibration: each repeat proposes a κ, runs, and feeds
	// the measured cost back into the estimator cached on the engine.
	var rc *model.Recalibrator
	if *adaptKappa {
		if eng == nil {
			fatal(errors.New("-adaptive-kappa requires -engine (the estimator persists on it)"))
		}
		if cfg.Recorder == nil {
			cfg.Recorder = obs.NewRecorder()
		}
		rc = model.TuneFor(eng, a, a, a, *kappa)
	}

	start := time.Now()
	var count int64
	var err error
	runs := max(*repeat, 1)
	for r := 0; r < runs; r++ {
		if rc != nil {
			cfg.Kappa = rc.Propose()
		}
		runStart := time.Now()
		count, err = graph.TriangleCount(a, m, cfg)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				fatal(fmt.Errorf("interrupted: %w", err))
			}
			fatal(err)
		}
		if rc != nil {
			st, _ := cfg.Recorder.LastRun()
			cfg.Recorder.AddRecal(rc.Observe(time.Since(runStart).Seconds(), st))
		}
	}
	elapsed := time.Since(start) / time.Duration(runs)
	fmt.Printf("vertices: %d\nedges:    %d\ntriangles: %d\nmethod: %s  config: %v\ntime: %s\n",
		a.Rows, a.NNZ()/2, count, *method, cfg, elapsed.Round(time.Microsecond))
	if eng != nil {
		st := eng.Stats()
		fmt.Printf("engine pool: %d hits, %d steals, %d misses over %d runs (hit rate %.1f%%)\n",
			st.Hits, st.Steals, st.Misses, runs, st.HitRate()*100)
	}
	if rc != nil {
		fmt.Printf("adaptive κ: settled at %.4g after %d runs (converged: %v)\n",
			rc.Kappa(), runs, rc.Converged())
	}

	if cfg.Recorder != nil {
		st := cfg.Recorder.Stats()
		if *statsFlag {
			fmt.Println("kernel stats:")
			st.WriteTable(os.Stdout)
		}
		if *statsJSON != "" {
			data, err := obs.MarshalJSONBytes(st)
			if err != nil {
				fatal(err)
			}
			if err := obs.ValidateStatsJSON(data); err != nil {
				fatal(fmt.Errorf("stats self-validation: %w", err))
			}
			if err := os.WriteFile(*statsJSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, schema validated)\n", *statsJSON, len(data))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trianglecount:", err)
	os.Exit(1)
}
