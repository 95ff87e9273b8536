package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sparse"
)

// minWarmHitRate is the execution engine's steady-state contract: a
// warm loop serves at least this share of its workspace checkouts from
// the pool.
const minWarmHitRate = 0.95

// checkWarmHitRate fails when the pool delta of a warm loop falls short
// of the contract.
func checkWarmHitRate(what string, pool exec.PoolStats) error {
	if rate := pool.HitRate(); rate < minWarmHitRate {
		return fmt.Errorf("bench: %s warm pool hit rate %.3f below required %.3f (%+v)",
			what, rate, minWarmHitRate, pool)
	}
	return nil
}

// iterativeWorkload is one iterative graph algorithm — a loop of masked
// SpGEMMs over a fixed graph — in its materializing and its fused
// formulation; both return the same checksum when the fusion is correct.
type iterativeWorkload struct {
	name string
	run  func(cfg core.Config, fused bool) func() (int64, error)
}

func iterativeWorkloads(a *sparse.CSR[float64]) []iterativeWorkload {
	sources := []int{}
	for v := 0; v < a.Rows && len(sources) < 4; v += max(a.Rows/4, 1) {
		sources = append(sources, v)
	}
	return []iterativeWorkload{
		{"ktruss", func(cfg core.Config, fused bool) func() (int64, error) {
			ktruss := graph.KTruss
			if fused {
				ktruss = graph.KTrussFused
			}
			return func() (int64, error) {
				res, err := ktruss(a, 4, cfg)
				if err != nil {
					return 0, err
				}
				return res.Edges, nil
			}
		}},
		{"bcbatch", func(cfg core.Config, fused bool) func() (int64, error) {
			bc := graph.BetweennessCentralityBatch
			if fused {
				bc = graph.BetweennessCentralityBatchFused
			}
			return func() (int64, error) {
				deps, err := bc(a, sources, cfg)
				if err != nil {
					return 0, err
				}
				var sum float64
				for _, v := range deps {
					sum += v
				}
				return int64(sum), nil
			}
		}},
	}
}

// EngineBench runs the engine experiment: the iterative graph workloads
// (k-truss support-and-prune, batched Brandes BC) timed three ways —
// engineless, warm through a freshly populated execution engine, and
// warm through an engine with the fused formulation (k-truss as one
// select multiply per round, BC with a streamed backward sweep). The
// two engine columns differ only in the fusion, so the first step
// isolates workspace pooling and the second the fused pipeline. Three
// invariants are errors: the columns agree on the checksum, both warm
// loops meet the pool hit-rate contract, and the fused formulation
// allocates no more per operation than the materializing one.
func EngineBench(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Engine: warm iterative workloads — per-call allocation vs pooled workspaces vs pooled + fused pipeline")
	fmt.Fprintf(w, "%-10s %-22s %10s %10s %10s %14s %14s %14s %9s %8s %10s\n",
		"workload", "graph", "off ms", "on ms", "fused ms",
		"off allocs/op", "on allocs/op", "fus allocs/op", "hit-rate", "f-runs", "sel-kept")
	minRate := 1.0
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		base := tunedConfig(o.Workers)
		base.Context = o.Method.Context
		// This experiment owns its engines: base stays engineless for
		// the off column even when the -engine flag set a global one.
		for _, wl := range iterativeWorkloads(a) {
			off, err := o.time("engine", g.Name, wl.name+"/no-engine", wl.run(base, false))
			if err != nil {
				return err
			}
			var warm [2]Measurement // engine, engine + fused
			var fusion obs.FusedCounters
			rate := 1.0
			for i, config := range []string{wl.name + "/engine", wl.name + "/engine+fused"} {
				fused := i == 1
				cfg := base
				cfg.Engine = exec.New(exec.Config{})
				// One untimed cold run populates the pool; its recorder
				// reads the fused counters and is gone
				// before the timed repetitions, whose pool delta isolates
				// the steady state the engine promises.
				cold := cfg
				cold.Recorder = obs.NewRecorder()
				if _, err := wl.run(cold, fused)(); err != nil {
					return fmt.Errorf("engine/%s %s cold run: %w", g.Name, config, err)
				}
				prior := cfg.Engine.Stats()
				if warm[i], err = o.warm().time("engine", g.Name, config, wl.run(cfg, fused)); err != nil {
					return err
				}
				pool := cfg.Engine.Stats().Sub(prior)
				if err := checkWarmHitRate(g.Name+" "+config, pool); err != nil {
					return err
				}
				rate = min(rate, pool.HitRate())
				values := counterValues(pool)
				values["warm_hit_rate"] = pool.HitRate()
				if fused {
					fusion = cold.Recorder.Stats().Fused
					for k, v := range counterValues(fusion) {
						values[k] = v
					}
				}
				o.Log.Annotate("engine", g.Name, config, values)
			}
			minRate = min(minRate, rate)
			on, fu := warm[0], warm[1]
			if off.OutputNNZ != on.OutputNNZ || on.OutputNNZ != fu.OutputNNZ {
				return fmt.Errorf("engine/%s %s: columns disagree on the result checksum (%d / %d / %d)",
					g.Name, wl.name, off.OutputNNZ, on.OutputNNZ, fu.OutputNNZ)
			}
			// Fusion's whole point is removing intermediate
			// materialization, so more allocator traffic is a regression.
			if fu.AllocsPerOp > on.AllocsPerOp {
				return fmt.Errorf("engine/%s %s: fused allocs/op %.0f exceeds unfused %.0f",
					g.Name, wl.name, fu.AllocsPerOp, on.AllocsPerOp)
			}
			fmt.Fprintf(w, "%-10s %-22s %10.2f %10.2f %10.2f %14.0f %14.0f %14.0f %8.1f%% %8d %10d\n",
				wl.name, g.Name, off.Millis, on.Millis, fu.Millis,
				off.AllocsPerOp, on.AllocsPerOp, fu.AllocsPerOp, rate*100,
				fusion.SelectRuns+fusion.StreamRuns, fusion.SelectKept)
		}
	}
	fmt.Fprintf(w, "warm pool hit rate >= %.0f%% on every workload (min %.1f%%); fused allocs/op within unfused bounds\n",
		minWarmHitRate*100, minRate*100)
	return nil
}

// EngineWithBudget builds a shared benchmark engine sized by a
// retention budget in bytes (the -retention-mb flag): the first corpus
// graph's structural features feed the engine-config model, which
// translates the budget into an idle-workspace cap for the accumulator
// family the tuned configuration selects. budget 0 selects the model's
// default (256 MiB); negative budgets are rejected.
func EngineWithBudget(o Options, budget int64) (*exec.Engine, error) {
	if budget < 0 {
		return nil, fmt.Errorf("bench: retention budget must be >= 0, got %d", budget)
	}
	corpus := o.corpus()
	if len(corpus) == 0 {
		return nil, fmt.Errorf("bench: no corpus graphs selected")
	}
	a := corpus[0].Build(o.Shift)
	f, err := model.Extract(a, a, a)
	if err != nil {
		return nil, err
	}
	return exec.New(model.PredictEngineBudget(f, tunedConfig(o.Workers), o.Workers, budget)), nil
}
