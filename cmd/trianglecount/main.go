// Command trianglecount counts triangles in a graph given as a
// MatrixMarket file (or a generated corpus graph), using the masked
// SpGEMM kernel: the facade's count, L ⊙ (L×L) on a lower-triangle view
// of A, with κ, tile count and workers taken from the flags. Its time:
// line includes no assembly of C, which spgemm-bench's kernel timings
// do.
//
// Usage:
//
//	trianglecount -in graph.mtx [flags]
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
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sparse"
)

func main() {
	in := flag.String("in", "", "MatrixMarket input file")
	corpus := flag.String("corpus", "", "use a generated corpus graph instead of -in")
	shift := flag.Int("shift", 0, "halve corpus graph sizes this many times")
	tiles := flag.Int("tiles", 2048, "tile count")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	kappa := flag.Float64("kappa", 1, "co-iteration factor")
	statsFlag := flag.Bool("stats", false, "print kernel observability stats after counting")
	statsJSON := flag.String("stats-json", "", "write kernel observability stats to this JSON file")
	useEngine := flag.Bool("engine", false, "pool workspaces and plans in an execution engine across -repeat runs")
	repeat := flag.Int("repeat", 1, "count this many times (with -engine, later runs recycle pooled workspaces)")
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

	// Both inputs are symmetrized above, so the count never checks.
	var sym graph.Symmetry
	sym.Set(true)

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
	if *statsFlag || *statsJSON != "" {
		cfg.Recorder = obs.NewRecorder()
	}
	var eng *exec.Engine
	if *useEngine {
		eng = exec.New(exec.Config{})
		cfg.Engine = eng
	}
	start := time.Now()
	var count int64
	var err error
	runs := max(*repeat, 1)
	for r := 0; r < runs; r++ {
		count, err = graph.TriangleCount(a, &sym, cfg)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				fatal(fmt.Errorf("interrupted: %w", err))
			}
			fatal(err)
		}
	}
	elapsed := time.Since(start) / time.Duration(runs)
	fmt.Printf("vertices: %d\nedges:    %d\ntriangles: %d\nconfig: %v\ntime: %s\n",
		a.Rows, a.NNZ()/2, count, cfg, elapsed.Round(time.Microsecond))
	if eng != nil {
		st := eng.Stats()
		fmt.Printf("engine pool: %d hits, %d steals, %d misses over %d runs (hit rate %.1f%%)\n",
			st.Hits, st.Steals, st.Misses, runs, st.HitRate()*100)
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
