package maskedspgemm

// One testing.B benchmark per table/figure of the paper's evaluation.
// These run the same kernels as cmd/spgemm-bench on a reduced corpus
// (benchShift halves sizes three times) so `go test -bench=.` finishes
// in minutes; the binary regenerates the figures at full corpus scale.

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/baseline"
	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
	"maskedspgemm/spgemm"
)

const benchShift = 3

var graphCache = map[string]*sparse.CSR[float64]{}

func load(b *testing.B, name string) *sparse.CSR[float64] {
	b.Helper()
	if g, ok := graphCache[name]; ok {
		return g
	}
	spec, ok := bench.FindGraph(name)
	if !ok {
		b.Fatalf("unknown graph %s", name)
	}
	g := spec.Build(benchShift)
	graphCache[name] = g
	return g
}

func runMasked(b *testing.B, a *sparse.CSR[float64], cfg core.Config) {
	b.Helper()
	sr := semiring.PlusTimes[float64]{}
	var nnz int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.MaskedSpGEMM[float64](sr, a, a, a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nnz = c.NNZ()
	}
	b.ReportMetric(float64(nnz), "out-nnz")
}

// BenchmarkTable1Corpus measures corpus generation — the Table I
// stand-ins — one sub-benchmark per matrix.
func BenchmarkTable1Corpus(b *testing.B) {
	for _, spec := range bench.Corpus {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var nnz int64
			for i := 0; i < b.N; i++ {
				nnz = spec.Build(benchShift).NNZ()
			}
			b.ReportMetric(float64(nnz), "nnz")
		})
	}
}

// BenchmarkFig1MaskedSpGEMM compares the three implementations of
// Figure 1 — SuiteSparse-like, GrB-like, tuned — on every corpus graph
// with hash accumulators.
func BenchmarkFig1MaskedSpGEMM(b *testing.B) {
	for _, spec := range bench.Corpus {
		a := load(b, spec.Name)
		ssCfg := baseline.SuiteSparseConfig(a, a, a, 0)
		ssCfg.Accumulator = accum.HashKind
		tuned := core.DefaultConfig()
		tuned.Accumulator = accum.HashKind
		impls := []struct {
			name string
			cfg  core.Config
		}{
			{"SuiteSparseLike", ssCfg},
			{"GrBLike", baseline.GrBConfig(accum.HashKind, 0)},
			{"Tuned", tuned},
		}
		for _, impl := range impls {
			b.Run(spec.Name+"/"+impl.name, func(b *testing.B) {
				runMasked(b, a, impl.cfg)
			})
		}
	}
}

// BenchmarkFig11TileSweep sweeps tile count × tiling × scheduling ×
// accumulator on one road and one social graph — the per-graph series
// of Figure 11 (the binary runs all nine panels).
func BenchmarkFig11TileSweep(b *testing.B) {
	for _, name := range []string{"GAP-road-sim", "com-Orkut-sim"} {
		a := load(b, name)
		for _, ts := range []tiling.Strategy{tiling.FlopBalanced, tiling.Uniform} {
			for _, sp := range []sched.Policy{sched.Dynamic, sched.Static} {
				for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
					for _, tc := range []int{64, 1024, 8192} {
						label := fmt.Sprintf("%s/%v-%v-%v/tiles=%d", name, ts, sp, ak, tc)
						cfg := core.Config{
							Iteration: core.MaskLoad, Kappa: 1,
							Accumulator: ak, MarkerBits: 32,
							Tiles: tc, Tiling: ts, Schedule: sp,
						}
						b.Run(label, func(b *testing.B) { runMasked(b, a, cfg) })
					}
				}
			}
		}
	}
}

// BenchmarkFig13MarkerWidth sweeps the accumulator marker width
// (8/16/32/64 bits) for both accumulator families — Figure 13.
func BenchmarkFig13MarkerWidth(b *testing.B) {
	for _, name := range []string{"com-LiveJournal-sim", "europe_osm-sim"} {
		a := load(b, name)
		for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
			for _, bits := range []int{8, 16, 32, 64} {
				cfg := core.Config{
					Iteration: core.Hybrid, Kappa: 1,
					Accumulator: ak, MarkerBits: bits,
					Tiles: 2048, Tiling: tiling.FlopBalanced, Schedule: sched.Dynamic,
				}
				b.Run(fmt.Sprintf("%s/%v/%dbit", name, ak, bits), func(b *testing.B) {
					runMasked(b, a, cfg)
				})
			}
		}
	}
}

// BenchmarkFig14Kappa sweeps the co-iteration factor κ on the paper's
// four representative matrices, plus the no-co-iteration baseline —
// Figure 14.
func BenchmarkFig14Kappa(b *testing.B) {
	for _, name := range bench.Fig14Graphs {
		a := load(b, name)
		for _, kappa := range []float64{0.01, 0.1, 1, 10, 100} {
			cfg := core.Config{
				Iteration: core.Hybrid, Kappa: kappa,
				Accumulator: accum.HashKind, MarkerBits: 32,
				Tiles: 2048, Tiling: tiling.FlopBalanced, Schedule: sched.Dynamic,
			}
			b.Run(fmt.Sprintf("%s/kappa=%g", name, kappa), func(b *testing.B) {
				runMasked(b, a, cfg)
			})
		}
		base := core.Config{
			Iteration: core.MaskLoad, Kappa: 1,
			Accumulator: accum.HashKind, MarkerBits: 32,
			Tiles: 2048, Tiling: tiling.FlopBalanced, Schedule: sched.Dynamic,
		}
		b.Run(name+"/no-coiter", func(b *testing.B) { runMasked(b, a, base) })
	}
}

// BenchmarkIterationSpaces is the §III-B ablation: all four iteration
// spaces on the circuit matrix whose vanilla/mask-load costs diverge
// most (the circuit5M timeout of the paper). ns/flop is wall time over
// the Eq. 2 volume Σ nnz(B[k,:]) — the unit of core.kernel_ns_per_flop —
// so the cost of one accumulator update is comparable across spaces and
// across commits without running the whole benchmark.
func BenchmarkIterationSpaces(b *testing.B) {
	a := load(b, "circuit5M-sim")
	prof, err := core.ProfileMasked(a, a, a, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, it := range []core.IterationSpace{core.Vanilla, core.MaskLoad, core.CoIter, core.Hybrid} {
		cfg := core.DefaultConfig()
		cfg.Iteration = it
		b.Run(it.String(), func(b *testing.B) {
			runMasked(b, a, cfg)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(prof.Flops), "ns/flop")
		})
	}
}

// BenchmarkResetStrategies is the §III-C ablation: marker-based
// (SuiteSparse-style) vs explicit (GrB-style) accumulator reset.
func BenchmarkResetStrategies(b *testing.B) {
	a := load(b, "hollywood-2009-sim")
	kinds := []accum.Kind{
		accum.DenseKind, accum.DenseExplicitKind,
		accum.HashKind, accum.HashExplicitKind,
	}
	for _, k := range kinds {
		cfg := core.DefaultConfig()
		cfg.Iteration = core.MaskLoad
		cfg.Accumulator = k
		b.Run(k.String(), func(b *testing.B) { runMasked(b, a, cfg) })
	}
}

// BenchmarkAccumulatorChoice times the two accumulator families on one
// masked product shape swept over cols/RowCap ∈ {2, 4, 8, 16, 64}: 256
// rows whose mask rows hold RowCap = 1024 entries, one in every block of
// cols/RowCap columns, so the hash table is exactly 2·RowCap slots
// wide; 16 A entries per row, each selecting a B row of 256 random
// columns. One worker, one tile, warm engine. ns/flop is wall time over
// the Eq. 2 volume, the unit internal/model.ReferenceAccumCosts is kept
// in: those medians derive the state factor the planner picks the
// accumulator kind with (core.DenseStateFactor).
//
// The Window/bytes=B rows sweep the dense state itself: 16 rows over
// B/12 columns (float64 values, 32-bit markers) whose mask holds every
// eighth column, 256 A entries per row, each selecting a B row of 256
// random columns, so one FLOP in eight hits and hits and misses alike
// land at random slots of the whole state. A full-width accumulator of
// n columns is a window of n, so these are the window's costs by width,
// in ns per unit of Eq. 2 work (mask entries count: they are loaded and
// gathered): internal/model.ReferenceWindowCosts keeps their medians and
// derives the per-worker window floor from them (core.WindowFloor).
func BenchmarkAccumulatorChoice(b *testing.B) {
	const rowCap, rows, inner, aRow, bRow = 1024, 256, 4096, 16, 256
	rng := rand.New(rand.NewPCG(0xACC, 0xC401CE))
	randomRows := func(rows, cols, perRow int) *sparse.CSR[float64] {
		coo := sparse.NewCOO[float64](rows, cols, int64(rows*perRow))
		for i := range rows {
			for range perRow {
				coo.Add(sparse.Index(i), sparse.Index(rng.IntN(cols)), 1)
			}
		}
		return coo.ToCSR()
	}
	sr := semiring.PlusTimes[float64]{}
	// run times the warm product under kind, per unit of work.
	run := func(name string, kind accum.Kind, mask, a, bm *sparse.CSR[float64], work int64, unit string) {
		cfg := core.DefaultConfig()
		cfg.Iteration, cfg.Accumulator = core.MaskLoad, kind
		cfg.Tiles, cfg.Workers = 1, 1
		cfg.Engine = exec.New(exec.Config{})
		b.Run(name, func(b *testing.B) {
			if _, err := core.MaskedSpGEMM[float64](sr, mask, a, bm, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMM[float64](sr, mask, a, bm, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(work), unit)
		})
	}
	a := randomRows(rows, inner, aRow)
	for _, ratio := range []int{2, 4, 8, 16, 64} {
		cols := ratio * rowCap
		m := sparse.NewCOO[float64](rows, cols, rows*rowCap)
		for i := range rows {
			for k := range rowCap {
				m.Add(sparse.Index(i), sparse.Index(k*ratio+rng.IntN(ratio)), 1)
			}
		}
		mask, bm := m.ToCSR(), randomRows(inner, cols, bRow)
		prof, err := core.ProfileMasked(mask, a, bm, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []accum.Kind{accum.HashKind, accum.DenseKind} {
			run(fmt.Sprintf("%v/ratio=%d", kind, ratio), kind, mask, a, bm, prof.Flops, "ns/flop")
		}
	}
	const wRows, wA, wB = 16, 256, 256
	wa := randomRows(wRows, inner, wA)
	for _, bytes := range model.ReferenceWindowCosts.Bytes {
		cols := bytes / 12
		m := sparse.NewCOO[float64](wRows, cols, int64(wRows*cols/8))
		for i := range wRows {
			for j := 0; j < cols; j += 8 {
				m.Add(sparse.Index(i), sparse.Index(j), 1)
			}
		}
		mask, bm := m.ToCSR(), randomRows(inner, cols, wB)
		prof, err := core.ProfileMasked(mask, wa, bm, 1)
		if err != nil {
			b.Fatal(err)
		}
		run(fmt.Sprintf("Window/bytes=%d", bytes), accum.DenseKind, mask, wa, bm, prof.Eq2Work, "ns/work")
	}
}

// BenchmarkTriangleSemirings is the semiring-specialization ablation:
// PlusPair avoids reading the value streams.
func BenchmarkTriangleSemirings(b *testing.B) {
	a := load(b, "as-Skitter-sim")
	sym := sparse.Symmetrize(a)
	cfg := core.DefaultConfig()
	b.Run("PlusTimes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, sym, sym, sym, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PlusPair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, sym, sym, sym, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFormulations compares the saxpy kernel against the
// complement product on the two structural extremes: the railed circuit
// and a social graph.
func BenchmarkFormulations(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	for _, name := range []string{"circuit5M-sim", "hollywood-2009-sim"} {
		a := load(b, name)
		cfg := core.DefaultConfig()
		b.Run(name+"/saxpy-hybrid", func(b *testing.B) { runMasked(b, a, cfg) })
		b.Run(name+"/complement", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMMComp[float64](sr, a, a, a, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphAlgorithms measures the end-to-end workloads the kernel
// serves: triangle counting (all three formulations), one k-truss round
// (TriangleSupport), the whole k-truss staged and fused, BFS, and
// batched BC on the benchmark's 57 × 100 road lattice — a few
// hundred multiplies of a few hundred FLOPs each, reported per multiply
// because what it measures is the fixed cost of one call.
func BenchmarkGraphAlgorithms(b *testing.B) {
	a := sparse.Symmetrize(load(b, "com-LiveJournal-sim"))
	cfg := core.DefaultConfig()
	for _, m := range []graph.TriangleMethod{graph.Burkhardt, graph.SandiaLL, graph.Cohen} {
		b.Run("Triangles"+m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.TriangleCount(a, m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("TriangleSupport", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.TriangleSupport(a, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// k-truss(4), warm on an engine: B/round is the bytes one round
	// allocates, its result storage recycled from the third round on.
	b.Run("KTruss", func(b *testing.B) {
		for _, v := range []struct {
			name string
			run  func(*sparse.CSR[float64], int, core.Config) (*graph.KTrussResult, error)
		}{{"staged", graph.KTruss}, {"fused", graph.KTrussFused}} {
			b.Run(v.name, func(b *testing.B) {
				kCfg := cfg
				kCfg.Engine = exec.New(exec.Config{})
				// One untimed run warms the engine's pool and counts the rounds.
				res, err := v.run(a, 4, kCfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := v.run(a, 4, kCfg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*res.Rounds), "B/round")
			})
		}
	})
	road := load(b, "GAP-road-sim")
	b.Run("BFSRoad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.BFS(road, 0, core.Auto, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Batched BC, staged and fused, warm on an engine: us/multiply is the
	// fixed cost of one call, rows/multiply the rows one call's product
	// iterates — the level's front, not the lattice's 5 700 rows.
	b.Run("BCBatch", func(b *testing.B) {
		lattice := graphgen.RoadNetwork(57, 100, 0.95, 0x6A9)
		n := lattice.Rows
		sources := []int{n / 8, 3 * n / 8, 5 * n / 8, 7 * n / 8}
		b.Run("road-57x100", func(b *testing.B) {
			for _, v := range []struct {
				name string
				run  func(*sparse.CSR[float64], []int, core.Config) ([]float64, error)
			}{{"staged", graph.BetweennessCentralityBatch}, {"fused", graph.BetweennessCentralityBatchFused}} {
				b.Run(v.name, func(b *testing.B) {
					bcCfg := cfg
					bcCfg.Engine = exec.New(exec.Config{})
					// One untimed op under a recorder counts the op's multiplies
					// and their rows (and warms the engine's pool).
					counted := bcCfg
					counted.Recorder = obs.NewRecorder()
					if _, err := v.run(lattice, sources, counted); err != nil {
						b.Fatal(err)
					}
					st := counted.Recorder.Stats()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := v.run(lattice, sources, bcCfg); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(int64(b.N)*st.Runs), "us/multiply")
					b.ReportMetric(float64(st.Totals.Rows)/float64(st.Runs), "rows/multiply")
				})
			}
		})
	})
}

// BenchmarkRepeatedMultiply times one product repeated three ways
// through the public facade — a Multiplier on its own engine, a
// Multiplier on a shared engine, and plain MxM on an engine — on a
// product below the tile crossover (er-256), a flat one above it
// (road-20k) and a skewed one (rmat-2^13). The three columns are the
// same code path, so they must agree on allocs/op and B/op exactly and
// on time within noise: the evidence that the Multiplier needs no plan,
// workspace, retry ladder or κ loop of its own.
func BenchmarkRepeatedMultiply(b *testing.B) {
	for _, g := range []struct {
		name string
		a    *spgemm.Matrix
	}{
		{"er-256", spgemm.RandomGraph("er", 256, 1)},
		{"road-20k", spgemm.RandomGraph("road", 20000, 2)},
		{"rmat-2^13", spgemm.RandomGraph("rmat", 1<<13, 3)},
	} {
		a := g.a
		engine := spgemm.Defaults()
		engine.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
		columns := []struct {
			name string
			opts spgemm.Options
			mxm  bool
		}{
			{"multiplier", spgemm.Defaults(), false},
			{"multiplier+engine", engine, false},
			{"mxm+engine", engine, true},
		}
		for _, col := range columns {
			b.Run(g.name+"/"+col.name, func(b *testing.B) {
				multiply := func() (*spgemm.Matrix, error) { return spgemm.MxM(a, a, a, col.opts) }
				if !col.mxm {
					mu, err := spgemm.NewMultiplier(a, a, a, col.opts)
					if err != nil {
						b.Fatal(err)
					}
					multiply = mu.Multiply
				}
				// One untimed run warms the plan cache and the pool.
				if _, err := multiply(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := multiply(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTRSVWarm times one warm triangular solve on the trsv-iter
// operand, tril(A)+(1+deg)·I, of two corpus graphs at benchmark scale,
// and on the wide two-level system waves win on (n = 2¹⁷: the first half
// diagonal-only, each row of the second half with eight dependencies
// into the first), four ways on one engine each:
//
//   - facade-auto: the facade under the default LevelAuto;
//   - core-auto: core.SolveTriInto with zero SolveOpts, the same cached
//     plan and path, so it differs from facade-auto by the facade's
//     result vector (one allocation of 8n bytes) and its fixed per-call
//     overhead — anything more is per-call work the plan should hold;
//   - core-serial: the serial mode, rows in substitution order;
//   - core-waves: the wave mode.
//
// ns/nnz is time per stored entry of L; the auto columns run whichever
// of core-serial and core-waves the plan's verdict picked. The verdict's
// per-entry costs come from internal/core's BenchmarkSolveOrder.
func BenchmarkTRSVWarm(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	type operand struct {
		name    string
		triples []spgemm.Triple
		n       int
	}
	fromGraph := func(name string) operand {
		spec, ok := bench.FindGraph(name)
		if !ok {
			b.Fatalf("unknown graph %s", name)
		}
		a := sparse.Symmetrize(spec.Build(0))
		var triples []spgemm.Triple
		for i := 0; i < a.Rows; i++ {
			deg := 0
			for _, j := range a.RowCols(i) {
				if int(j) < i {
					triples = append(triples, spgemm.Triple{Row: i, Col: int(j), Val: 1})
					deg++
				}
			}
			triples = append(triples, spgemm.Triple{Row: i, Col: i, Val: float64(1 + deg)})
		}
		return operand{name, triples, a.Rows}
	}
	wide := func(n int) operand {
		half := n / 2
		triples := make([]spgemm.Triple, 0, 5*n)
		for i := 0; i < n; i++ {
			if i >= half {
				for k := 0; k < 8; k++ {
					triples = append(triples, spgemm.Triple{Row: i, Col: (i*7919 + k*half/8) % half, Val: 1})
				}
			}
			triples = append(triples, spgemm.Triple{Row: i, Col: i, Val: 9})
		}
		return operand{fmt.Sprintf("wide-2^%d", bits.Len(uint(n))-1), triples, n}
	}
	for _, op := range []func() operand{
		func() operand { return fromGraph("arabic-2005-sim") },
		func() operand { return fromGraph("com-Orkut-sim") },
		func() operand { return wide(1 << 17) },
	} {
		op := op()
		n := op.n
		l, err := spgemm.FromTriples(n, n, op.triples)
		if err != nil {
			b.Fatal(err)
		}
		coo := sparse.NewCOO[float64](n, n, int64(len(op.triples)))
		for _, t := range op.triples {
			coo.Add(sparse.Index(t.Row), sparse.Index(t.Col), t.Val)
		}
		csr := coo.ToCSR()
		nnz := float64(csr.NNZ())
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = 1
		}
		dst := make([]float64, n)

		opts := spgemm.Defaults()
		opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
		cfg := core.DefaultConfig()
		cfg.Workers = opts.Workers
		cfg.Engine = exec.New(exec.Config{})
		coreSolve := func(so core.SolveOpts) func() error {
			return func() error {
				return core.SolveTriInto[float64, semiring.PlusTimes[float64]](sr, dst, csr, rhs, cfg, so)
			}
		}
		for _, col := range []struct {
			name  string
			solve func() error
		}{
			{"facade-auto", func() error {
				_, err := spgemm.TRSV(l, rhs, spgemm.TriLower, opts)
				return err
			}},
			{"core-auto", coreSolve(core.SolveOpts{})},
			{"core-serial", coreSolve(core.SolveOpts{Mode: core.SolveSerial})},
			{"core-waves", coreSolve(core.SolveOpts{Mode: core.SolveWaves})},
		} {
			b.Run(op.name+"/"+col.name, func(b *testing.B) {
				// One untimed solve builds and caches the level-set plan.
				if err := col.solve(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := col.solve(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nnz, "ns/nnz")
			})
		}
	}
}
