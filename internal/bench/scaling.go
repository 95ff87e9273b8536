package bench

import (
	"fmt"
	"io"
	"runtime"
)

// Scaling sweeps the worker count on the corpus benchmark, reporting
// per-worker-count runtimes and parallel efficiency. The paper pins 64
// OpenMP threads and never varies them; this experiment exists to
// characterize the Go worker pool on whatever host runs it. On a
// single-core host it documents (rather than hides) that speedup is
// unavailable, and that the goroutine pool costs little when idle.
func Scaling(w io.Writer, o Options) error {
	maxW := runtime.GOMAXPROCS(0) * 2
	var counts []int
	for c := 1; c <= maxW; c *= 2 {
		counts = append(counts, c)
	}
	fmt.Fprintf(w, "Worker scaling on C = A ⊙ (A×A) (GOMAXPROCS=%d); times in ms\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-22s", "graph \\ workers")
	for _, c := range counts {
		fmt.Fprintf(w, "%10d", c)
	}
	fmt.Fprintln(w)
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		fmt.Fprintf(w, "%-22s", g.Name)
		for _, c := range counts {
			cfg := tunedConfig(c)
			cfg.Engine = o.Engine
			meas, err := o.timeMasked("scaling", g.Name, fmt.Sprintf("workers=%d", c), a, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%10.2f", meas.Millis)
		}
		fmt.Fprintln(w)
	}
	return nil
}
