package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graph"
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
// SpGEMMs over a fixed graph — returning a checksum of its result.
// Betweenness centrality is not one: it multiplies no matrices and
// checks out no workspace.
type iterativeWorkload struct {
	name string
	run  func(cfg core.Config) func() (int64, error)
}

func iterativeWorkloads(a *sparse.CSR[float64]) []iterativeWorkload {
	return []iterativeWorkload{
		{"ktruss", func(cfg core.Config) func() (int64, error) {
			return func() (int64, error) {
				res, err := graph.KTruss(a, 4, cfg)
				if err != nil {
					return 0, err
				}
				return res.Edges, nil
			}
		}},
	}
}

// EngineBench runs the engine experiment: the iterative graph workloads
// (k-truss support-and-prune) timed engineless and warm through a
// freshly populated execution engine, so the difference is workspace
// pooling. Two invariants are errors: the columns agree on the
// checksum, and the warm loop meets the pool hit-rate contract.
func EngineBench(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Engine: warm iterative workloads — per-call allocation vs pooled workspaces")
	fmt.Fprintf(w, "%-10s %-22s %10s %10s %14s %14s %9s\n",
		"workload", "graph", "off ms", "on ms",
		"off allocs/op", "on allocs/op", "hit-rate")
	minRate := 1.0
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)
		base := tunedConfig(o.Workers)
		base.Context = o.Method.Context
		// This experiment owns its engines: base stays engineless for
		// the off column even when the -engine flag set a global one.
		for _, wl := range iterativeWorkloads(a) {
			off, err := o.time("engine", g.Name, wl.name+"/no-engine", wl.run(base))
			if err != nil {
				return err
			}
			config := wl.name + "/engine"
			cfg := base
			cfg.Engine = exec.New(exec.Config{})
			// One untimed cold run populates the pool, so the timed
			// repetitions' pool delta isolates the steady state the
			// engine promises.
			if _, err := wl.run(cfg)(); err != nil {
				return fmt.Errorf("engine/%s %s cold run: %w", g.Name, config, err)
			}
			prior := cfg.Engine.Stats()
			on, err := o.warm().time("engine", g.Name, config, wl.run(cfg))
			if err != nil {
				return err
			}
			pool := cfg.Engine.Stats().Sub(prior)
			if err := checkWarmHitRate(g.Name+" "+config, pool); err != nil {
				return err
			}
			rate := pool.HitRate()
			minRate = min(minRate, rate)
			values := counterValues(pool)
			values["warm_hit_rate"] = rate
			o.Log.Annotate("engine", g.Name, config, values)
			if off.OutputNNZ != on.OutputNNZ {
				return fmt.Errorf("engine/%s %s: columns disagree on the result checksum (%d / %d)",
					g.Name, wl.name, off.OutputNNZ, on.OutputNNZ)
			}
			fmt.Fprintf(w, "%-10s %-22s %10.2f %10.2f %14.0f %14.0f %8.1f%%\n",
				wl.name, g.Name, off.Millis, on.Millis,
				off.AllocsPerOp, on.AllocsPerOp, rate*100)
		}
	}
	fmt.Fprintf(w, "warm pool hit rate >= %.0f%% on every workload (min %.1f%%)\n",
		minWarmHitRate*100, minRate*100)
	return nil
}
