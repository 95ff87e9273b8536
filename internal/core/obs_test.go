package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// expectedFlops independently computes the Eq. 2 flop volume the
// recorder should report: Σ nnz(B[k,:]) over the A entries of every row
// the kernel actually visits (all rows for Vanilla, mask-nonempty rows
// for the masked spaces).
func expectedFlops(m, a, b *sparse.CSR[float64], it IterationSpace) int64 {
	var total int64
	for i := 0; i < a.Rows; i++ {
		if it != Vanilla && m.RowNNZ(i) == 0 {
			continue
		}
		for _, k := range a.RowCols(i) {
			total += b.RowNNZ(int(k))
		}
	}
	return total
}

// expectedHybridPicks counts the (i,k) decisions Hybrid must make: one
// per A entry in every mask-nonempty row.
func expectedHybridPicks(m, a *sparse.CSR[float64]) int64 {
	var total int64
	for i := 0; i < a.Rows; i++ {
		if m.RowNNZ(i) > 0 {
			total += a.RowNNZ(i)
		}
	}
	return total
}

// checkParity asserts the recorder totals against independently
// computed ground truth — the counters are exact, not sampled.
func checkParity(
	t *testing.T, st obs.Stats, c *sparse.CSR[float64],
	m, a, b *sparse.CSR[float64], cfg Config, tiles, runs int64,
) {
	t.Helper()
	tot := st.Totals
	if st.Runs != runs {
		t.Errorf("%v: runs = %d, want %d", cfg, st.Runs, runs)
	}
	if tot.Rows != runs*int64(m.Rows) {
		t.Errorf("%v: rows = %d, want %d", cfg, tot.Rows, runs*int64(m.Rows))
	}
	if want := runs * expectedFlops(m, a, b, cfg.Iteration); tot.Flops != want {
		t.Errorf("%v: flops = %d, want %d", cfg, tot.Flops, want)
	}
	if want := runs * c.NNZ(); tot.Gathered != want {
		t.Errorf("%v: gathered = %d, want %d (C nnz %d)", cfg, tot.Gathered, want, c.NNZ())
	}
	if tot.Tiles != runs*tiles {
		t.Errorf("%v: tiles = %d, want %d", cfg, tot.Tiles, runs*tiles)
	}
	if cfg.Iteration == Hybrid {
		if want := runs * expectedHybridPicks(m, a); tot.CoIterPicks+tot.LinearPicks != want {
			t.Errorf("%v: picks = %d+%d, want %d",
				cfg, tot.CoIterPicks, tot.LinearPicks, want)
		}
	} else if tot.CoIterPicks != 0 || tot.LinearPicks != 0 {
		t.Errorf("%v: non-hybrid recorded picks %d/%d",
			cfg, tot.CoIterPicks, tot.LinearPicks)
	}
}

// TestRecorderCounterParity checks that the per-worker counters sum to
// independently computed exact values for every iteration space, all
// three schedule policies, and serial plus parallel worker pools.
func TestRecorderCounterParity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randMatrix(60, 50, 0.15, r)
	b := randMatrix(50, 40, 0.15, r)
	m := randMatrix(60, 40, 0.2, r)
	sr := semiring.PlusTimes[float64]{}

	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
		for _, pol := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
			for _, workers := range []int{1, 3} {
				cfg := Config{
					Iteration: it, Kappa: 1,
					Accumulator: accum.HashKind, MarkerBits: 32,
					Tiles: 6, Tiling: tiling.FlopBalanced,
					Schedule: pol, Workers: workers,
					Recorder: obs.NewRecorder(),
				}
				c, err := MaskedSpGEMM(sr, m, a, b, cfg)
				if err != nil {
					t.Fatalf("%v: %v", cfg, err)
				}
				nTiles := int64(len(tiling.Make(cfg.Tiling, cfg.Tiles, a, b, m)))
				checkParity(t, cfg.Recorder.Stats(), c, m, a, b, cfg, nTiles, 1)
			}
		}
	}
}

// TestRecorderParityUniformTiling covers the Uniform plan path of
// makeTiles, which spans only the tile-build phase.
func TestRecorderParityUniformTiling(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randMatrix(40, 30, 0.2, r)
	b := randMatrix(30, 35, 0.2, r)
	m := randMatrix(40, 35, 0.25, r)
	cfg := Config{
		Iteration: Hybrid, Kappa: 1,
		Accumulator: accum.DenseKind, MarkerBits: 16,
		Tiles: 5, Tiling: tiling.Uniform,
		Schedule: sched.Dynamic, Workers: 2,
		Recorder: obs.NewRecorder(),
	}
	c, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nTiles := int64(len(tiling.UniformTiles(a.Rows, cfg.Tiles)))
	checkParity(t, cfg.Recorder.Stats(), c, m, a, b, cfg, nTiles, 1)
}

// TestRecorderRepeatedAccumulation runs one product several times on
// an engine under one recorder and checks the counters scale exactly
// with the run count — the reused accumulators must not leak cross-run
// state.
func TestRecorderRepeatedAccumulation(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	a := randMatrix(50, 45, 0.15, r)
	b := randMatrix(45, 40, 0.15, r)
	m := randMatrix(50, 40, 0.2, r)
	cfg := Config{
		Iteration: Hybrid, Kappa: 1,
		Accumulator: accum.HashKind, MarkerBits: 32,
		Tiles: 4, Tiling: tiling.FlopBalanced,
		Schedule: sched.Guided, Workers: 3,
		Recorder: obs.NewRecorder(),
	}
	multiply, tiles := repeated(m, a, b, cfg), planTiles(t, m, a, b, cfg)
	const runs = 3
	var c *sparse.CSR[float64]
	var err error
	for i := 0; i < runs; i++ {
		if c, err = multiply(); err != nil {
			t.Fatal(err)
		}
	}
	st := cfg.Recorder.Stats()
	checkParity(t, st, c, m, a, b, cfg, int64(tiles), runs)
	// The plan phases must have been spanned exactly once (the first
	// run's plan-cache miss), the exec phases once per run.
	for _, ph := range st.Phases {
		switch ph.Phase {
		case "exec.kernel", "exec.assemble":
			if ph.Count != runs {
				t.Errorf("%s count = %d, want %d", ph.Phase, ph.Count, runs)
			}
		default:
			if ph.Count != 1 {
				t.Errorf("%s count = %d, want 1", ph.Phase, ph.Count)
			}
		}
	}
}

// TestRecorderAccumCounters drives a hash accumulator with a tiny table
// through the kernel and checks the probe/clear counters arrive in the
// recorder. Marker clears require marker wrap-around, which takes 2^bits
// rows; probes are the cheap observable here.
func TestRecorderAccumCounters(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	a := randMatrix(30, 30, 0.3, r)
	b := randMatrix(30, 30, 0.3, r)
	m := randMatrix(30, 30, 0.3, r)
	cfg := Config{
		Iteration: MaskLoad, Kappa: 1,
		Accumulator: accum.HashKind, MarkerBits: 8,
		Tiles: 3, Tiling: tiling.FlopBalanced,
		Schedule: sched.Static, Workers: 2,
		Recorder: obs.NewRecorder(),
	}
	if _, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg); err != nil {
		t.Fatal(err)
	}
	st := cfg.Recorder.Stats()
	if st.Accum.HashProbes == 0 {
		t.Fatal("hash kernel run recorded zero probes")
	}
	if st.Accum.HashCollisions > st.Accum.HashProbes {
		t.Fatalf("collisions %d exceed probes %d",
			st.Accum.HashCollisions, st.Accum.HashProbes)
	}
}

// TestRecorderInstrumentedComposes checks the recorder and the counting
// decorator (MaskedSpGEMMInstrumented) agree where their counters
// overlap: both must see the exact gathered-entry total.
func TestRecorderInstrumentedComposes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randMatrix(40, 40, 0.2, r)
	b := randMatrix(40, 40, 0.2, r)
	m := randMatrix(40, 40, 0.2, r)
	cfg := Config{
		Iteration: Hybrid, Kappa: 1,
		Accumulator: accum.HashKind, MarkerBits: 32,
		Tiles: 4, Tiling: tiling.FlopBalanced,
		Schedule: sched.Dynamic, Workers: 2,
		Recorder: obs.NewRecorder(),
	}
	c, counters, err := MaskedSpGEMMInstrumented[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Recorder.Stats()
	if st.Totals.Gathered != counters.Gathered || st.Totals.Gathered != c.NNZ() {
		t.Fatalf("gathered: recorder %d, decorator %d, C nnz %d",
			st.Totals.Gathered, counters.Gathered, c.NNZ())
	}
	// The decorator wraps the accumulator, so the recorder's accum stats
	// must still flow through it.
	if st.Accum.HashProbes == 0 {
		t.Fatal("instrumented run lost accumulator stats")
	}
}

// benchOperands builds a fixed benchmark problem once.
func benchOperands(b *testing.B) (m, a, bb *sparse.CSR[float64]) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	a = randMatrix(300, 300, 0.05, r)
	bb = randMatrix(300, 300, 0.05, r)
	m = randMatrix(300, 300, 0.05, r)
	return m, a, bb
}

// BenchmarkMaskedStatsOff measures the kernel with a nil recorder — the
// baseline the <1% enabled-overhead budget is judged against, and the
// guard that the disabled path allocates nothing beyond the kernel's
// own buffers.
func BenchmarkMaskedStatsOff(b *testing.B) {
	m, a, bb := benchOperands(b)
	cfg := DefaultConfig()
	cfg.Tiles = 64
	multiply := repeated(m, a, bb, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiply(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskedStatsOn is the identical problem with a live recorder.
func BenchmarkMaskedStatsOn(b *testing.B) {
	m, a, bb := benchOperands(b)
	cfg := DefaultConfig()
	cfg.Tiles = 64
	cfg.Recorder = obs.NewRecorder()
	multiply := repeated(m, a, bb, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiply(); err != nil {
			b.Fatal(err)
		}
	}
}
