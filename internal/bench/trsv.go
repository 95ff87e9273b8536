package bench

import (
	"fmt"
	"io"
	"math"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// CheckWaveSpeedup is the -min-trsv-speedup timing gate over a run's
// trsv rows: it fails unless some graph's wave schedule beats serial by
// at least min (e.g. 1.0 = parity). Timing-based and meaningless
// without real cores, so `make bench-trsv` leaves it off by default
// (TRSV_SPEEDUP=0); the bit-identity gate inside the experiment is
// unconditional.
func CheckWaveSpeedup(l *ResultLog, min float64) error {
	best, graph := -1.0, ""
	for _, e := range l.Entries("trsv") {
		if s := e.Values["speedup"]; e.Config == "wave" && s > best {
			best, graph = s, e.Graph
		}
	}
	if graph == "" {
		return fmt.Errorf("bench: -min-trsv-speedup needs the trsv experiment; this run logged no wave solve")
	}
	if best < min {
		return fmt.Errorf("bench: best wave-solve speedup %.2fx (%s) below required %.2fx",
			best, graph, min)
	}
	return nil
}

// lowerFromGraph builds the solve operand the experiment uses: the
// strict lower triangle of a plus a dominant diagonal (1 + row degree),
// so every corpus graph yields a nonsingular lower-triangular system
// whose dependency DAG is the graph's own edge structure.
func lowerFromGraph(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	n := a.Rows
	coo := sparse.NewCOO[float64](n, n, a.NNZ())
	for i := 0; i < n; i++ {
		deg := 0.0
		for _, j := range a.RowCols(i) {
			if int(j) < i {
				coo.Add(sparse.Index(i), j, 1)
				deg++
			}
		}
		coo.Add(sparse.Index(i), sparse.Index(i), 1+deg)
	}
	return coo.ToCSR()
}

// vecChecksum folds a solution vector's exact bit patterns into one
// int64 (FNV-1a over Float64bits), so Measurement.OutputNNZ doubles as
// a bit-identity checksum across the serial and wave runs.
func vecChecksum(x []float64) int64 {
	h := uint64(1469598103934665603)
	for _, v := range x {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return int64(h)
}

// TrsvBench runs the masked-triangular-solve experiment: for every
// corpus graph, L·x = 1 solved warm by the serial substitution loop and
// by the dependency-wave schedule (level sets coarsened by Eq. 2 row
// work), with the solutions compared bit-for-bit — a hard gate — and
// the wave run's schedule shape reported from the recorder.
func TrsvBench(w io.Writer, o Options) error {
	workers := workersOr(o.Workers, 4)
	sr := semiring.PlusTimes[float64]{}
	fmt.Fprintf(w, "Triangular solve: serial substitution vs dependency waves (p=%d), L = tril(A)+D, b = 1\n", workers)
	fmt.Fprintf(w, "%-22s %10s %12s %8s %8s %8s %12s %12s %8s\n",
		"graph", "n", "nnz(L)", "levels", "waves", "serial-w", "serial ms", "wave ms", "speedup")
	for _, g := range o.corpus() {
		l := lowerFromGraph(g.Build(o.Shift))
		n := l.Rows
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		dstS := make([]float64, n)
		dstW := make([]float64, n)

		cfg := core.DefaultConfig()
		cfg.Workers = workers
		cfg.Engine = o.Engine
		if cfg.Engine == nil {
			cfg.Engine = exec.New(exec.Config{})
		}
		waveOpts := core.SolveOpts{Tri: core.Lower, Mode: core.SolveWaves}
		solveWaves := func(cfg core.Config) error {
			return core.SolveTriInto[float64, semiring.PlusTimes[float64]](sr, dstW, l, b, cfg, waveOpts)
		}

		// One recorded, untimed wave solve captures the schedule shape
		// (and warms the plan cache); the timed loops run recorder-free.
		rec := o.newRecorder()
		cfgRec := cfg
		cfgRec.Recorder = rec
		if err := solveWaves(cfgRec); err != nil {
			return fmt.Errorf("trsv/%s wave warm-up: %w", g.Name, err)
		}
		sc := rec.Stats().Sched

		sm, err := o.time("trsv", g.Name, "serial", func() (int64, error) {
			if err := core.SolveTriSerial(dstS, l, b, core.SolveOpts{Tri: core.Lower}); err != nil {
				return 0, err
			}
			return vecChecksum(dstS), nil
		})
		if err != nil {
			return err
		}
		wm, err := o.time("trsv", g.Name, "wave", func() (int64, error) {
			if err := solveWaves(cfg); err != nil {
				return 0, err
			}
			return vecChecksum(dstW), nil
		})
		if err != nil {
			return err
		}

		// Bit-identity is the experiment's hard gate: checksum and the
		// full vectors must agree exactly.
		if sm.OutputNNZ != wm.OutputNNZ {
			return fmt.Errorf("trsv/%s: wave checksum %d differs from serial %d",
				g.Name, wm.OutputNNZ, sm.OutputNNZ)
		}
		for i := range dstS {
			if dstS[i] != dstW[i] {
				return fmt.Errorf("trsv/%s: wave x[%d] = %v, serial %v — not bit-identical",
					g.Name, i, dstW[i], dstS[i])
			}
		}

		speedup := 0.0
		if wm.Millis > 0 {
			speedup = sm.Millis / wm.Millis
		}
		o.Log.Annotate("trsv", g.Name, "wave", map[string]float64{
			"workers": float64(workers), "rows": float64(n), "nnz": float64(l.NNZ()),
			"levels": float64(sc.Levels), "waves": float64(sc.Waves),
			"serial_waves": float64(sc.SerialWaves), "barriers": float64(sc.Barriers),
			"speedup": speedup,
		})
		fmt.Fprintf(w, "%-22s %10d %12d %8d %8d %8d %12.3f %12.3f %7.2fx\n",
			g.Name, n, l.NNZ(), sc.Levels, sc.Waves, sc.SerialWaves,
			sm.Millis, wm.Millis, speedup)
	}
	return nil
}
