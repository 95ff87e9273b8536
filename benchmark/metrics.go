package main

import (
	"math"
	"sort"
)

// metricDef is one entry of the ledger: the fixed name later issues
// refer to, its unit and direction, and — for the end-to-end metrics —
// the relative worsening that counts as a regression. What each entry
// measures, and which end-to-end metric a per-layer entry is predicted
// to move on which workload, is in README.md; a test keeps the two lists
// of names equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the library would see. Every workload
// reports all of them; none is ever 0. The bounds are as wide as they
// are because one bound has to hold on every workload across runs on
// different seeds: trsv-iter's barrier wake-ups set the time bounds,
// ktruss-churn's seed-dependent round count the allocation bounds (see
// README.md, "Why the bounds are this wide").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_ms_p50", "ms", "lower", 0.25},
	{"op_rel_p90", "ratio", "lower", 0.25},
	{"cold_pass_ms", "ms", "lower", 0.25},
	{"medges_per_s", "Medge/s", "higher", 0.25},
	{"allocs_per_pass", "count", "lower", 0.25},
	{"alloc_mb_per_pass", "MB", "lower", 0.25},
	{"retained_mb", "MB", "lower", 0.10},
}

// corpusMetric is the per-graph row of the trajectory.
func corpusMetric(graph string) string { return "op_ms." + graph }

// perLayer is the ledger of single layers; the first segment of a name
// is the package it measures.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "graphgen.build_ms", unit: "ms", better: "lower"},
		{name: "sparse.prep_ms", unit: "ms", better: "lower"},
		{name: "sparse.transpose_ns_per_nnz", unit: "ns", better: "lower"},
		{name: "sparse.symmetrize_ns_per_nnz", unit: "ns", better: "lower"},
		{name: "sparse.clone_ns_per_nnz", unit: "ns", better: "lower"},
		{name: "model.predict_us", unit: "us", better: "lower"},
		{name: "model.extract_solve_us", unit: "us", better: "lower"},
		{name: "tiling.rowwork_ns_per_row", unit: "ns", better: "lower"},
		{name: "tiling.prefix_ns_per_row", unit: "ns", better: "lower"},
		{name: "tiling.build_ns_per_tile", unit: "ns", better: "lower"},
		{name: "tiling.plan_share", unit: "ratio", better: "lower"},
		{name: "tiling.imbalance", unit: "ratio", better: "lower"},
		{name: "sched.claim_ns", unit: "ns", better: "lower"},
		{name: "sched.claim_ns_static", unit: "ns", better: "lower"},
		{name: "sched.claim_ns_guided", unit: "ns", better: "lower"},
		{name: "sched.spawn_us", unit: "us", better: "lower"},
		{name: "sched.barrier_ns", unit: "ns", better: "lower"},
		{name: "sched.barrier_wait_share", unit: "ratio", better: "lower"},
		{name: "sched.flop_imbalance", unit: "ratio", better: "lower"},
		{name: "sched.speedup_vs_1w", unit: "ratio", better: "higher"},
		{name: "exec.checkout_ns", unit: "ns", better: "lower"},
		{name: "exec.plan_lookup_ns", unit: "ns", better: "lower"},
		{name: "exec.plan_store_ns", unit: "ns", better: "lower"},
		{name: "exec.pool_hit_ratio", unit: "ratio", better: "higher"},
		{name: "exec.plan_hit_ratio", unit: "ratio", better: "higher"},
		{name: "exec.resizes", unit: "count", better: "lower"},
		{name: "exec.evictions", unit: "count", better: "lower"},
		{name: "accum.hash_update_ns", unit: "ns", better: "lower"},
		{name: "accum.dense_update_ns", unit: "ns", better: "lower"},
		{name: "accum.gather_ns_per_entry", unit: "ns", better: "lower"},
		{name: "accum.probes_per_update", unit: "ratio", better: "lower"},
		{name: "accum.marker_clears", unit: "count", better: "lower"},
		{name: "core.kernel_ns_per_flop", unit: "ns", better: "lower"},
		{name: "core.kernel_share", unit: "ratio", better: "lower"},
		{name: "core.assemble_ns_per_nnz", unit: "ns", better: "lower"},
		{name: "core.assemble_share", unit: "ratio", better: "lower"},
		{name: "core.coiter_ratio", unit: "ratio", better: "higher"},
		{name: "core.flops_per_pass", unit: "count", better: "lower"},
		{name: "core.solve_ns_per_nnz", unit: "ns", better: "lower"},
		{name: "core.levels_plan_ms", unit: "ms", better: "lower"},
		{name: "core.ewise_ns_per_nnz", unit: "ns", better: "lower"},
		{name: "graph.glue_share", unit: "ratio", better: "lower"},
		{name: "spgemm.call_us", unit: "us", better: "lower"},
		{name: "obs.span_ns", unit: "ns", better: "lower"},
		{name: "telemetry.hist_record_ns", unit: "ns", better: "lower"},
		{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
		{name: "go.gc_cycles_per_pass", unit: "count", better: "lower"},
		{name: "go.gc_pause_ms_per_pass", unit: "ms", better: "lower"},
	}
	for _, g := range corpus {
		defs = append(defs, metricDef{name: corpusMetric(g.name), unit: "ms", better: "lower"})
	}
	return defs
}()

// ---- small statistics ---------------------------------------------------

func sortedCopy(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics; q in [0, 1].
// An empty sample has quantile 0.
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sortedCopy(x)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(x []float64) float64 { return quantile(x, 0.5) }

// spread is the run-to-run noise of a metric: the distance between the
// first and third quartile as a share of the median — the figure the
// regression bounds are compared with. The quartiles are those of
// Python's statistics.quantiles(x, n=4), which is what the benchmark
// driver computes. Fewer than four values report 0.
func spread(x []float64) float64 {
	if len(x) < 4 {
		return 0
	}
	m := median(x)
	if m == 0 {
		return 0
	}
	s := sortedCopy(x)
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		delta := float64(pos - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / m)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
