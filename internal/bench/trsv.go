package bench

import (
	"fmt"
	"io"
	"math"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
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
// corpus graph, L·x = 1 solved warm three ways on one engine — the
// serial mode (one worker in substitution order), the dependency-wave
// schedule forced (level sets coarsened by Eq. 2 row work), and the
// automatic mode, which runs whichever of the two the plan's verdict
// picks. Every solution is compared bit-for-bit with core.SolveTriSerial,
// the untimed reference — a hard gate. The wave row reports the schedule
// shape from the recorder; the auto row reports whether waves ran and
// the cached plan's predicted serial and wave times next to the measured
// ones.
func TrsvBench(w io.Writer, o Options) error {
	workers := workersOr(o.Workers, 4)
	fmt.Fprintf(w, "Triangular solve: serial substitution vs dependency waves vs the plan's verdict (p=%d), L = tril(A)+D, b = 1\n", workers)
	fmt.Fprintf(w, "%-22s %10s %12s %8s %8s %8s %10s %10s %10s %8s %7s %10s %10s\n",
		"graph", "n", "nnz(L)", "levels", "waves", "serial-w", "serial ms", "wave ms", "auto ms", "speedup",
		"auto", "pred ser", "pred wave")
	for _, g := range o.corpus() {
		l := lowerFromGraph(g.Build(o.Shift))
		n := l.Rows
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		ref := make([]float64, n)

		cfg := core.DefaultConfig()
		cfg.Workers = workers
		cfg.Engine = o.Engine
		if cfg.Engine == nil {
			cfg.Engine = exec.New(exec.Config{})
		}
		// solve runs one mode into its own vector; recorded reports the
		// sched block of one untimed run, which also warms the plan cache.
		solve := func(mode core.SolveMode, dst []float64, cfg core.Config) error {
			so := core.SolveOpts{Tri: core.Lower, Mode: mode}
			return core.SolveTriInto(dst, l, b, cfg, so)
		}
		recorded := func(mode core.SolveMode, dst []float64) (obs.SchedCounters, error) {
			rec := obs.NewRecorder()
			cfgRec := cfg
			cfgRec.Recorder = rec
			err := solve(mode, dst, cfgRec)
			return rec.Stats().Sched, err
		}
		timed := func(config string, run func() error, dst []float64) (Measurement, error) {
			return o.time("trsv", g.Name, config, func() (int64, error) {
				if err := run(); err != nil {
					return 0, err
				}
				return vecChecksum(dst), nil
			})
		}
		// Bit-identity is the experiment's hard gate: checksum and the
		// full vectors must agree exactly with the reference.
		if err := core.SolveTriSerial(ref, l, b, core.SolveOpts{Tri: core.Lower}); err != nil {
			return fmt.Errorf("trsv/%s reference: %w", g.Name, err)
		}
		refSum := vecChecksum(ref)
		identical := func(config string, m Measurement, dst []float64) error {
			if m.OutputNNZ != refSum {
				return fmt.Errorf("trsv/%s: %s checksum %d differs from the reference %d", g.Name, config, m.OutputNNZ, refSum)
			}
			for i := range ref {
				if ref[i] != dst[i] {
					return fmt.Errorf("trsv/%s: %s x[%d] = %v, reference %v — not bit-identical", g.Name, config, i, dst[i], ref[i])
				}
			}
			return nil
		}

		dstS := make([]float64, n)
		if err := solve(core.SolveSerial, dstS, cfg); err != nil {
			return fmt.Errorf("trsv/%s serial warm-up: %w", g.Name, err)
		}
		sm, err := timed("serial", func() error { return solve(core.SolveSerial, dstS, cfg) }, dstS)
		if err != nil {
			return err
		}
		if err := identical("serial", sm, dstS); err != nil {
			return err
		}
		dstW := make([]float64, n)
		sc, err := recorded(core.SolveWaves, dstW)
		if err != nil {
			return fmt.Errorf("trsv/%s wave warm-up: %w", g.Name, err)
		}
		wm, err := timed("wave", func() error { return solve(core.SolveWaves, dstW, cfg) }, dstW)
		if err != nil {
			return err
		}
		if err := identical("wave", wm, dstW); err != nil {
			return err
		}
		dstA := make([]float64, n)
		ac, err := recorded(core.SolveAuto, dstA)
		if err != nil {
			return fmt.Errorf("trsv/%s auto warm-up: %w", g.Name, err)
		}
		am, err := timed("auto", func() error { return solve(core.SolveAuto, dstA, cfg) }, dstA)
		if err != nil {
			return err
		}
		if err := identical("auto", am, dstA); err != nil {
			return err
		}
		// The plan the warm-ups cached: a lookup, not a second build.
		sp, err := core.SolvePlanOf(l, cfg, core.SolveOpts{Tri: core.Lower})
		if err != nil {
			return err
		}

		speedup := 0.0
		if wm.Millis > 0 {
			speedup = sm.Millis / wm.Millis
		}
		ran := "serial"
		if ac.WaveRuns > 0 {
			ran = "waves"
		}
		o.Log.Annotate("trsv", g.Name, "wave", map[string]float64{
			"workers": float64(workers), "rows": float64(n), "nnz": float64(l.NNZ()),
			"levels": float64(sc.Levels), "waves": float64(sc.Waves),
			"serial_waves": float64(sc.SerialWaves), "barriers": float64(sc.Barriers),
			"speedup": speedup,
		})
		o.Log.Annotate("trsv", g.Name, "auto", map[string]float64{
			"waves_ran":          float64(ac.WaveRuns),
			"pred_serial_ms":     sp.SerialNs / 1e6,
			"pred_wave_ms":       sp.WavesNs / 1e6,
			"measured_serial_ms": sm.Millis,
			"measured_wave_ms":   wm.Millis,
		})
		fmt.Fprintf(w, "%-22s %10d %12d %8d %8d %8d %10.3f %10.3f %10.3f %7.2fx %7s %10.3f %10.3f\n",
			g.Name, n, l.NNZ(), sc.Levels, sc.Waves, sc.SerialWaves,
			sm.Millis, wm.Millis, am.Millis, speedup, ran, sp.SerialNs/1e6, sp.WavesNs/1e6)
	}
	return nil
}
