package core_test

import (
	"testing"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BenchmarkViewKernels times the lower view's L ⊙ (L × L) under each
// row kernel, forced, on the eight triangle-count graphs at corpus
// scale, warm on an engine and one worker: ns/op next to the work the
// verdict prices (core.CountViewWork: rows, entries, hashed, flops and
// steps per op). These are the rows internal/model.ReferenceViewRuns
// fits the view's unit costs to.
func BenchmarkViewKernels(b *testing.B) {
	defer core.SetTileCrossoverForTest(core.SetTileCrossoverForTest(core.ProductionCrossover))
	for _, name := range []string{
		"com-Orkut-sim", "hollywood-2009-sim", "com-LiveJournal-sim", "uk-2002-sim",
		"circuit5M-sim", "stokes-sim", "GAP-road-sim", "europe_osm-sim",
	} {
		spec, _ := bench.FindGraph(name)
		a := sparse.Symmetrize(spec.Build(0))
		l, err := core.AccumulatorOf(a, a, a, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		w := core.CountViewWork(a, l)
		for _, kernel := range []string{"acc", "merge"} {
			b.Run(name+"/"+kernel, func(b *testing.B) {
				defer core.ForceViewVerdict(kernel == "merge")()
				cfg := core.DefaultConfig()
				cfg.Workers = 1
				cfg.Engine = exec.New(exec.Config{})
				var total float64
				count := func() {
					err := core.MaskedSpGEMMStreamLower[float64](semiring.PlusPair[float64]{}, a, true, cfg,
						func(_ int, _ []sparse.Index, vals []float64) {
							for _, v := range vals {
								total += v
							}
						})
					if err != nil {
						b.Fatal(err)
					}
				}
				count()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					count()
				}
				b.ReportMetric(float64(w.Rows), "rows")
				b.ReportMetric(float64(w.Entries), "entries")
				b.ReportMetric(float64(w.Hashed), "hashed")
				b.ReportMetric(float64(w.Flops), "flops")
				b.ReportMetric(float64(w.Steps), "steps")
			})
		}
	}
}
