package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/semiring"
)

// CheckAdapted is the -kappa-slack timing gate over a run's
// kappa-adapt rows: it fails when any graph's adapted warm time is more
// than slack (a fraction, e.g. 0.05) worse than either the best
// offline-swept κ or the static default — the recalibrator's contract.
// Timing-based, so meant for attended runs and EXPERIMENTS.md, not
// hard CI gates.
func CheckAdapted(l *ResultLog, slack float64) error {
	checked := 0
	for _, e := range l.Entries("kappa-adapt") {
		if e.Config != "adapted" {
			continue
		}
		checked++
		v := e.Values
		if e.Millis > v["best_millis"]*(1+slack) {
			return fmt.Errorf("bench: %s adapted κ=%g runs %.2fms, more than %.0f%% over best κ=%g (%.2fms)",
				e.Graph, v["adapted_kappa"], e.Millis, slack*100, v["best_kappa"], v["best_millis"])
		}
		if e.Millis > v["default_millis"]*(1+slack) {
			return fmt.Errorf("bench: %s adapted κ=%g runs %.2fms, more than %.0f%% over default κ=%g (%.2fms)",
				e.Graph, v["adapted_kappa"], e.Millis, slack*100, v["default_kappa"], v["default_millis"])
		}
	}
	if checked == 0 {
		return fmt.Errorf("bench: -kappa-slack needs the kappa-adapt experiment; this run logged no adapted κ")
	}
	return nil
}

// kappaAdaptWarmRuns bounds the recalibrator's warm loop; Converged()
// ends it sooner. Sized so the three-arm bracket can recenter a few
// times and still shrink its step to the convergence floor: one shrink
// needs two defended brackets (6 runs), and γ=2 is five shrinks from
// the 1.05 floor.
const kappaAdaptWarmRuns = 64

// KappaAdaptBench runs the adaptive-κ experiment on the benchmark
// kernel C = A ⊙ (A×A): an offline sweep over o.Kappas (all warm on a
// shared engine) establishes the best static κ, then a fresh engine
// runs the online recalibrator loop — propose, multiply, observe — and
// the adapted κ is timed warm for comparison.
func KappaAdaptBench(w io.Writer, o Options) error {
	sr := semiring.PlusTimes[float64]{}
	fmt.Fprintln(w, "Adaptive κ: online recalibration vs offline sweep, C = A ⊙ (A×A), warm")
	fmt.Fprintf(w, "%-22s %10s %12s %10s %12s %10s %12s %6s %5s\n",
		"graph", "default-κ", "default ms", "best-κ", "best ms", "adapt-κ", "adapt ms", "runs", "conv")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		base := tunedConfig(o.Workers)
		base.Context = o.Method.Context
		base.Recorder = nil
		base.Engine = exec.New(exec.Config{})
		defaultK := base.Kappa

		bestMs, bestK := math.Inf(1), defaultK
		defMs := math.NaN()
		for _, k := range o.Kappas {
			cfg := base
			cfg.Kappa = k
			ms, err := o.timeMasked("kappa-adapt", g.Name, fmt.Sprintf("sweep/kappa=%g", k), a, cfg)
			if err != nil {
				return err
			}
			if ms.Millis < bestMs {
				bestMs, bestK = ms.Millis, k
			}
			if k == defaultK {
				defMs = ms.Millis
			}
		}
		if math.IsNaN(defMs) {
			ms, err := o.timeMasked("kappa-adapt", g.Name, "default", a, base)
			if err != nil {
				return err
			}
			defMs = ms.Millis
		}

		// The online loop gets its own engine so the recalibrator cell
		// starts cold, like a fresh process would.
		cfgA := base
		cfgA.Engine = exec.New(exec.Config{})
		rc := model.TuneFor(cfgA.Engine, a, a, a, defaultK)
		rec := o.newRecorder()
		cfgA.Recorder = rec
		runs := 0
		for i := 0; i < kappaAdaptWarmRuns; i++ {
			if err := methodErr(o.Method); err != nil {
				return err
			}
			cfgA.Kappa = rc.Propose()
			start := time.Now()
			if _, err := core.MaskedSpGEMM[float64](sr, a, a, a, cfgA); err != nil {
				return fmt.Errorf("kappa-adapt/%s online run %d: %w", g.Name, i, err)
			}
			secs := time.Since(start).Seconds()
			st, _ := rec.LastRun()
			rec.AddRecal(rc.Observe(secs, st))
			runs++
			if rc.Converged() {
				break
			}
		}

		cfgA.Recorder = nil
		cfgA.Kappa = rc.Kappa()
		adapted, err := o.warm().timeMasked("kappa-adapt", g.Name, "adapted", a, cfgA)
		if err != nil {
			return err
		}
		values := counterValues(rec.Stats().Recal)
		values["default_kappa"], values["default_millis"] = defaultK, defMs
		values["best_kappa"], values["best_millis"] = bestK, bestMs
		values["adapted_kappa"], values["warm_runs"] = cfgA.Kappa, float64(runs)
		values["converged"] = 0
		if rc.Converged() {
			values["converged"] = 1
		}
		o.Log.Annotate("kappa-adapt", g.Name, "adapted", values)
		fmt.Fprintf(w, "%-22s %10.3g %12.2f %10.3g %12.2f %10.3g %12.2f %6d %5v\n",
			g.Name, defaultK, defMs, bestK, bestMs,
			cfgA.Kappa, adapted.Millis, runs, rc.Converged())
	}
	return nil
}
